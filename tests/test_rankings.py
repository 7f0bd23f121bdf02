"""Exact rankings through float images, against the Python sort they replace.

rank_scores and the descent rankings order scores by their correctly
rounded float images and compare exactly only inside runs of equal images
(scheme.rank_rows).  The reference below is the former rank_scores, a Python
sort with the same declines, where an int and an equal Fraction share one
code whose value is the first of them; the new routes must give the same
codes, the same values of the same types, and decline the same rows.  The descent
rankings are asked for in batches of centers, as a closure round or a sweep
asks, and checked center by center and level by level against that
reference over the former per-element quotients, on rows the int64 pass
holds and on rows it leaves to Python numbers; the pair rankings are checked
the same way against the former per-pair quotients.
"""

import json
import math
from bisect import bisect_right
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sepdet import (
    FiniteMetricSpace,
    FunctionOracle,
    Point,
    SuiteConfig,
    closure_iterate,
    punctured_ball_problem,
    run_suite,
    space_to_descriptor,
    torus_slope_problem,
    witness_select,
)
from sepdet import functionals, scheme
from sepdet.cli import run_cli
from sepdet.extreal import NEG_INF, POS_INF, pos_part, sub
from sepdet.functionals import _exact_div, _Rankings, level_grid, shell_truncation
from sepdet.scheme import rank_rows, rank_scores

NAN = float("nan")
NEAR_THIRD = Fraction(6004799503160661, 18014398509481984)  # float(NEAR_THIRD) == float(1/3)


def reference_rank_scores(scores, mode):
    """rank_scores as a Python sort: the reference the array route must match."""
    order = sorted(range(len(scores)), key=scores.__getitem__, reverse=mode == "inf")
    codes = [0] * len(scores)
    values: list = []
    for j in order:
        v = scores[j]
        if values and v == values[-1]:
            w = values[-1]
            if kind(v) is not kind(w) or (type(v) is float and str(v) != str(w)):
                return None
        elif v != v:  # NaN orders nothing, so the scan's answer depends on its order
            return None
        else:
            values.append(v)
        codes[j] = len(values) - 1
    bad = NEG_INF if mode == "sup" else POS_INF
    if values and type(values[0]) is float and values[0] == bad:
        return None
    return codes, values


def kind(v):
    """int and Fraction share a code when equal; any other two types do not."""
    return Fraction if type(v) is int else type(v)


def reference_fractions(scores, codes):
    """The Fraction flags of ranked scores where an int and a Fraction share a code, else None."""
    seen = {(c, type(v)) for c, v in zip(codes, scores)}
    shared = any((c, int) in seen and (c, Fraction) in seen for c, _ in seen)
    return [type(v) is Fraction for v in scores] if shared else None


def typed(ranked):
    """A ranking with each value's type and repr, so 2 and Fraction(2) differ."""
    if ranked is None:
        return None
    codes, values = ranked
    return list(codes), [(type(v).__name__, repr(v)) for v in values]


SCORES = st.one_of(
    st.integers(-6, 6),
    st.fractions(min_value=-6, max_value=6, max_denominator=7),
    st.sampled_from([Fraction(2), 2.0, 0.0, -0.0, Fraction(0), 0.1, Fraction(1, 10),
                     Fraction(1, 3), NEAR_THIRD, 2 ** 53 + 1, float(2 ** 53), 10 ** 400,
                     -10 ** 400, Fraction(10 ** 400, 3), POS_INF, NEG_INF, NAN]),
)


@settings(max_examples=400, deadline=None)
@given(st.lists(SCORES, max_size=9), st.sampled_from(["sup", "inf"]))
@example([Fraction(1, 3), NEAR_THIRD, Fraction(1, 3)], "sup")
@example([Fraction(1, 3), NEAR_THIRD], "inf")
@example([2, Fraction(2)], "sup")
@example([0.0, -0.0], "inf")
@example([1, NAN], "sup")
@example([NEG_INF, 1], "sup")
@example([POS_INF, 1], "inf")
@example([], "sup")
def test_rank_scores_matches_the_python_sort(scores, mode):
    assert typed(rank_scores(scores, mode)) == typed(reference_rank_scores(scores, mode))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.lists(st.fractions(min_value=-4, max_value=4, max_denominator=9),
                         min_size=3, max_size=3), min_size=1, max_size=4),
       st.sampled_from(["sup", "inf"]))
@example([[Fraction(1, 3), NEAR_THIRD, Fraction(1, 3)]], "sup")
@example([[NEAR_THIRD, Fraction(1, 3), NEAR_THIRD], [0, 1, 0]], "inf")
def test_rank_rows_orders_int64_fractions_exactly(rows, mode):
    # int64 keys: a tie of float images is broken by the fractions themselves
    rows = [[Fraction(v) for v in row] for row in rows]
    num = np.array([[v.numerator for v in row] for row in rows], dtype=np.int64)
    den = np.array([[v.denominator for v in row] for row in rows], dtype=np.int64)
    kinds = np.ones_like(num)  # every score a Fraction
    codes, values = rank_rows(num / den, (num, den), kinds, lambda r, js: [
        Fraction(int(num[r, j]), int(den[r, j])) for j in js], mode)
    for r, row in enumerate(rows):
        assert typed((codes[r], values[r])) == typed(reference_rank_scores(row, mode))


def reference_descent(f_values, space, i, t, mode):
    """The former per-level descent ranking: (codes by point, Fraction flags
    or None, values)."""
    order, dists = space.sorted_row(i)
    a = bisect_right(dists, 0)
    try:
        scores = [_exact_div(pos_part(sub(t, f_values[j])), d)
                  for j, d in zip(order[a:], dists[a:])]
        ranked = reference_rank_scores(scores, mode)
    except Exception:
        return None
    if ranked is None:
        return None
    codes, values = ranked
    fractions = reference_fractions(scores, codes)
    by_point = [-1] * len(space)
    by_fraction = None if fractions is None else [False] * len(space)
    for k, (j, c) in enumerate(zip(order[a:], codes)):
        by_point[j] = c
        if fractions is not None:
            by_fraction[j] = fractions[k]
    return by_point, by_fraction, [(type(v).__name__, repr(v)) for v in values]


def got_descent(rankings, got):
    if got is None:
        return None
    keys, fractions, values = got
    n = len(rankings.space)
    return ([-1 if k < 0 else k // n for k in keys.tolist()],
            None if fractions is None else fractions.tolist(),
            [(type(v).__name__, repr(v)) for v in values])


BIG = 2 ** 17 + 1  # past what the int64 pass holds
WIDE = Fraction(2 ** 30 - 1, 2 ** 29 + 1)  # its products would overflow int64
VALUES = st.one_of(st.integers(-5, 5), st.fractions(min_value=-5, max_value=5, max_denominator=6),
                   st.sampled_from([Fraction(2), 0, POS_INF, BIG, Fraction(1, BIG), WIDE, 2 ** 70]))
DISTANCES = st.one_of(st.integers(1, 6), st.fractions(min_value=Fraction(1, 4), max_value=6,
                                                      max_denominator=5),
                      st.sampled_from([Fraction(2), 1.5, 2.0, 3 ** 0.5, BIG, WIDE, 2 ** 70]))
LEVELS = st.one_of(VALUES, st.sampled_from([NEAR_THIRD, 0.5, NEG_INF]))


@st.composite
def descent_cases(draw):
    n = draw(st.integers(1, 6))
    matrix = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(a + 1, n):
            matrix[a][b] = matrix[b][a] = draw(DISTANCES)
    values = draw(st.lists(VALUES | st.sampled_from([0.25, NEG_INF]), min_size=n, max_size=n))
    levels = draw(st.lists(LEVELS, min_size=1, max_size=5, unique_by=lambda t: (type(t), t)))
    return matrix, values, levels, draw(st.sampled_from(["sup", "inf"]))


REQUESTS = st.lists(st.lists(st.integers(0, 5), min_size=1, max_size=4), min_size=1, max_size=4)
SOME = [[2, 0], [1, 2, 1, 0]]  # overlapping requests, one with a repeated center


def check_requests(values, space, levels, mode, requests):
    """Each request asks for its centers (taken mod n), the k-th at levels[k % len:],
    then one asks for every center; each (center, level) must equal the
    reference, and a second read of it must be the same object."""
    f = FunctionOracle("f", lambda p: values[int(p.id[1:])])
    rankings, n, seen = _Rankings(f, space), len(space), {}
    for k, request in enumerate(requests + [list(range(n))]):
        centers, asked = [i % n for i in request], levels[k % len(levels):]
        for i, row in zip(centers, rankings.descents(centers, asked, mode)):
            assert [got_descent(rankings, g) for g in row] == \
                [reference_descent(values, space, i, t, mode) for t in asked]
            assert all(seen.setdefault((i, type(t), t), g) is g for t, g in zip(asked, row))


@settings(max_examples=300, deadline=None)
@given(descent_cases(), REQUESTS)
# zero quotients at an int and a Fraction distance tie as 0 and Fraction(0)
@example(([[0, 1, Fraction(1)], [1, 0, 1], [Fraction(1), 1, 0]], [0, 3, 3], [1], "sup"), SOME)
@example(([[0, 1, 2], [1, 0, 1], [2, 1, 0]], [0, 2 ** 70, 1], [2], "sup"), SOME)  # past int64
@example(([[0, WIDE, 2], [WIDE, 0, 1], [2, 1, 0]], [0, 1 / WIDE, 3], [WIDE], "sup"), SOME)
@example(([[0, BIG, 2], [BIG, 0, 1], [2, 1, 0]], [0, 1, Fraction(1, BIG)], [3], "inf"), SOME)
@example(([[0, 1.5, 2], [1.5, 0, 1], [2, 1, 0]], [0, 1, POS_INF], [2, POS_INF], "sup"), SOME)
@example(([[0, 2.0, 2], [2.0, 0, 1], [2, 1, 0]], [0, 1, 1], [3], "sup"), SOME)  # 1.0 ties 1
@example(([[0, 1, 1], [1, 0, 1], [1, 1, 0]], [0, 0.25, NEG_INF], [1, POS_INF], "inf"), SOME)
# a level past what the int64 pass holds next to one it holds, at two centers
@example(([[0, 1, 2], [1, 0, 1], [2, 1, 0]], [0, 1, 2], [BIG, 1], "sup"), [[0, 1]])
def test_descent_rankings_match_the_per_element_reference(case, requests):
    matrix, values, levels, mode = case
    space = FiniteMetricSpace([Point(f"p{k}") for k in range(len(values))], matrix)
    check_requests(values, space, levels, mode, requests)


def test_a_request_past_the_pass_bound_is_ranked_in_blocks(monkeypatch):
    # 45 centers at 47 full levels: 2,115 rows of 44 quotients, 93,060 in all
    n = 45
    space = FiniteMetricSpace([Point(f"p{k}") for k in range(n)],
                              [[abs(a - b) for b in range(n)] for a in range(n)])
    values = [(7 * k) % n for k in range(n)]
    levels = [-1] + sorted(values) + [n]
    kernel, blocks = functionals._quotient_parts, []

    def counted_kernel(t, f, *rest):
        blocks.append(f.shape[1:])  # (rows, points per row)
        return kernel(t, f, *rest)

    monkeypatch.setattr(functionals, "_quotient_parts", counted_kernel)
    check_requests(values, space, levels, "sup", [])
    per_block = functionals._Rankings.PASS_BOUND // (n - 1)
    assert [rows for rows, _ in blocks] == [per_block] * (len(blocks) - 1) + [
        n * len(levels) - per_block * (len(blocks) - 1)]
    assert len(blocks) > 1 and all(rows * m <= per_block * (n - 1) for rows, m in blocks)


def test_a_closure_ranks_no_center_outside_its_union():
    # coarse shells on a line: the closure from p0 stops at 6 of 10 points
    points = [Point(f"p{k}", (k,)) for k in range(10)]
    space = FiniteMetricSpace.from_coords(points)
    f = FunctionOracle.from_table({p.id: (3 * k) % 10 for k, p in enumerate(points)})
    trunc = shell_truncation(space, level_grid(f, space, "full"), 2)
    union = closure_iterate(torus_slope_problem(space, f, truncation=trunc), points[:1]).union
    assert len(union) < len(space)
    ranked = {key[1] for key in functionals._rankings(f, space).memo if key[0] == "descent"}
    assert ranked == {space.index_of(p) for p in union}


# the GOLDEN configs of tests/test_harness.py
SLOPE_GOLDEN = {"thm-4.2": (3, (5, 7, 9)), "thm-4.3": (2, (6, 9))}


def test_golden_descents_take_the_int64_pass_once_per_batch(monkeypatch):
    kernel, descents = functionals._quotient_parts, functionals._Rankings.descents
    by_python = functionals._rank_or_none  # the per-element route, also the points' and pairs'
    requests, passes, fallbacks = [], [], []

    def counted_kernel(t, *rest):
        passes.append(t.shape[1])  # the rows of the pass
        return kernel(t, *rest)

    def counted_fallback(score_all, mode):
        fallbacks.append(mode)
        return by_python(score_all, mode)

    def counted_descents(self, centers, levels, mode):
        missing = {(i, type(t), t) for i in centers for t in levels
                   if ("descent", i, mode, type(t), t) not in self.memo}
        passes[:] = []
        monkeypatch.setattr(functionals, "_rank_or_none", counted_fallback)
        try:  # only the calls descents makes count as fallbacks
            got = descents(self, centers, levels, mode)
        finally:
            monkeypatch.setattr(functionals, "_rank_or_none", by_python)
        requests.append((missing, list(passes)))
        return got

    monkeypatch.setattr(functionals, "_quotient_parts", counted_kernel)
    monkeypatch.setattr(functionals._Rankings, "descents", counted_descents)
    for name, (instances, sizes) in SLOPE_GOLDEN.items():
        for eps, cap in ((0, 1), (Fraction(1, 2), 3)):
            assert run_suite(name, SuiteConfig(instances=instances, sizes=sizes,
                                               eps=eps, cap=cap)).ok
    assert requests and fallbacks == []
    # every request within the bound: its missing rows in one pass, or none
    assert all(made == ([len(missing)] if missing else []) for missing, made in requests)
    rows = Counter(len({i for i, *_ in missing}) > 1 for missing, _ in requests
                   for _ in missing)
    assert rows[True] > rows[False]  # most rows ranked in passes over several centers


def reference_pairs(f_values, space, mode):
    """The former per-pair ranking: (code and Fraction flag (or None) of each
    pair a < b, values)."""
    n = len(space)
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    try:
        scores = [_exact_div(abs(sub(f_values[a], f_values[b])), space.matrix[a][b])
                  for a, b in pairs]
        ranked = reference_rank_scores(scores, mode)
    except Exception:
        return None
    if ranked is None:
        return None
    codes, values = ranked
    return (codes, reference_fractions(scores, codes),
            [(type(v).__name__, repr(v)) for v in values])


def got_pairs(rankings, got):
    if got is None:
        return None
    keys, fractions, values = got
    n = len(rankings.space)
    a, b = np.triu_indices(n, 1)
    assert (keys == keys.T).all() and (keys.diagonal() == -1).all()
    if fractions is not None:
        assert (fractions == fractions.T).all() and not fractions.diagonal().any()
    return ((keys[a, b] // (n * n)).tolist(),
            None if fractions is None else fractions[a, b].tolist(),
            [(type(v).__name__, repr(v)) for v in values])


@st.composite
def pair_cases(draw):
    n = draw(st.integers(1, 7))
    matrix = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(a + 1, n):
            matrix[a][b] = matrix[b][a] = draw(DISTANCES)
    values = draw(st.lists(VALUES | st.sampled_from([0.25, NEG_INF]), min_size=n, max_size=n))
    return matrix, values, draw(st.sampled_from(["sup", "inf"]))


@settings(max_examples=300, deadline=None)
@given(pair_cases())
# both +inf (the int 0) beside equal Fractions (Fraction(0)): one code, as in thm-2.1
@example(([[0, 1, 2, 3], [1, 0, 1, 2], [2, 1, 0, 1], [3, 2, 1, 0]],
          [POS_INF, POS_INF, Fraction(1, 2), Fraction(1, 2)], "sup"))
@example(([[0, 3 ** 0.5, 2], [3 ** 0.5, 0, 1], [2, 1, 0]], [0, Fraction(1, 3), 1], "sup"))
@example(([[0, 2.0, 2], [2.0, 0, 1], [2, 1, 0]], [POS_INF, POS_INF, 1], "inf"))
@example(([[0, 1, 2], [1, 0, 1], [2, 1, 0]], [0, BIG, 1], "sup"))  # past the int64 pass
@example(([[0, 1, 2], [1, 0, 1], [2, 1, 0]], [0, 0.25, 1], "sup"))  # a finite float value
# an unvalidated space: a zero and a negative distance between distinct points
@example(([[0, 0, 1], [0, 0, 2], [1, 2, 0]], [0, 1, 3], "sup"))
@example(([[0, -1, 1], [-1, 0, 2], [1, 2, 0]], [0, 1, 3], "inf"))
@example(([[0, Fraction(0), 1], [Fraction(0), 0, 2], [1, 2, 0]], [0, 0, 3], "sup"))
@example(([[0, 0.0, 1], [0.0, 0, 2], [1, 2, 0]], [0, 1, 3], "sup"))
def test_pair_rankings_match_the_per_pair_reference(case):
    matrix, values, mode = case
    n = len(values)
    space = FiniteMetricSpace([Point(f"p{k}") for k in range(n)], matrix)
    rankings = _Rankings(FunctionOracle("f", lambda p: values[int(p.id[1:])]), space)
    dists = [matrix[a][b] for a in range(n) for b in range(a + 1, n)]
    held = (functionals._parts(values) is not None and all(float(d) > 0 for d in dists)
            and functionals._parts(dists, floats=True) is not None)
    by_python, calls = functionals._exact_div, []

    def counted(*args):
        calls.append(args)
        return by_python(*args)

    functionals._exact_div = counted
    try:
        got = rankings.pairs(mode)
    finally:
        functionals._exact_div = by_python
    assert got_pairs(rankings, got) == reference_pairs(values, space, mode)
    assert rankings.pairs(mode) is got
    # the int64 pass where it holds the inputs, one Python number at a time otherwise
    assert bool(calls) == (not held and bool(dists))


PAIR_SUITES = ("thm-2.1", "thm-2.2", "prop-3.2", "thm-3.3")  # GOLDEN: 4 instances, 5-11 points


def test_golden_pair_rankings_take_the_int64_pass(monkeypatch):
    pairs, by_python = functionals._Rankings.pairs, functionals._exact_div
    made, calls = Counter(), Counter()

    def counted(*args):
        calls[name] += 1
        return by_python(*args)

    def counted_pairs(self, mode):
        fresh = ("pairs", mode) not in self.memo
        monkeypatch.setattr(functionals, "_exact_div", counted)
        try:  # only the quotients pairs makes count
            got = pairs(self, mode)
        finally:
            monkeypatch.setattr(functionals, "_exact_div", by_python)
        made[name] += fresh
        return got

    monkeypatch.setattr(functionals._Rankings, "pairs", counted_pairs)
    for name in PAIR_SUITES:
        for eps, cap in ((0, 1), (Fraction(1, 2), 3)):
            assert run_suite(name, SuiteConfig(instances=4, sizes=(5, 7, 9, 11),
                                               eps=eps, cap=cap)).ok
    assert all(made[name] > 0 for name in PAIR_SUITES)
    assert calls == Counter()


def test_default_thm_2_1_ranks_every_pair_function(monkeypatch):
    # its +inf instances give the int 0 (two +inf values) beside Fraction(0)
    # (two equal Fractions): one code, so no ranking declines and no region is scanned
    pairs, made, scans = functionals._Rankings.pairs, [], []

    def counted_pairs(self, mode):
        fresh = ("pairs", mode) not in self.memo
        got = pairs(self, mode)
        made.extend([got is not None] if fresh else [])
        return got

    monkeypatch.setattr(functionals._Rankings, "pairs", counted_pairs)
    score_region = scheme._score_region
    monkeypatch.setattr(scheme, "_score_region",
                        lambda *args: scans.append(args[1]) or score_region(*args))
    assert run_suite("thm-2.1").ok
    assert made and all(made) and scans == []


# ---------------------------------------------------------------------------
# A witness slack of +inf


@pytest.fixture
def path4():
    points = [Point(pid) for pid in "abcd"]
    space = FiniteMetricSpace.from_matrix(points, [[abs(i - j) for j in range(4)]
                                                   for i in range(4)])
    f = FunctionOracle.from_table({"a": 0, "b": Fraction(1, 2), "c": 2, "d": POS_INF})
    return space, f


def test_infinite_eps_is_rejected_by_name(path4):
    # best - eps at a +inf best is NaN, which selected no witness at all
    space, f = path4
    problem, seed = punctured_ball_problem(space, f, "sup"), [space.point("a")]
    assert {p.id for p in closure_iterate(problem, seed, eps=10 ** 9).union} == set("abcd")
    # an exact slack past the float range met a float best in best - eps: OverflowError
    for eps in (math.inf, 10 ** 999, Fraction(10 ** 400, 3)):
        for run in (lambda: closure_iterate(problem, seed, eps=eps),
                    lambda: witness_select(problem, (seed[0], 1), eps=eps),
                    lambda: SuiteConfig(eps=eps)):
            with pytest.raises(ValueError, match="eps must be finite"):
                run()


@pytest.mark.parametrize("eps", ["inf", "1e999"])
@pytest.mark.parametrize("verb", [["check", "--x", "a"], ["reduce", "--x", "a"], ["suite"]])
def test_infinite_eps_exits_two_at_the_cli(verb, eps, path4, tmp_path, capsys):
    # check used to exit 1 with failed checks, its closure stopping at {a, b}
    space, f = path4
    space_path, fn_path = tmp_path / "space.json", tmp_path / "fn.json"
    space_path.write_text(json.dumps(space_to_descriptor(space)))
    fn_path.write_text(json.dumps(f.to_descriptor(space)))
    inputs = (["--name", "thm-2.1"] if verb == ["suite"] else
              ["--space", str(space_path), "--fn", str(fn_path), "--name", "punctured-ball"])
    assert run_cli(verb + inputs + ["--eps", eps]) == 2
    assert "--eps: eps must be finite" in capsys.readouterr().err
