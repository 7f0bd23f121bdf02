"""Variational quantities over a space and their restricted counterparts.

Every quantity here is a finite formula: discrete liminf/limsup along a
radius grid, the pairwise Lipschitz supremum over a ball, the torus supremum
(t - f(u))^+ / d(x, u), and the descent slope as an inf-sup-sup sweep over
shells.  Each operation takes an optional Y argument; when given, the
regions are intersected with Y, which is all the restriction identities need.

On a finite space without a budget the formulas read f's rankings, memoised
on the function oracle per space and shared with the optimum tables of the
families built on f.  The pair and shell formulas read the center's optimum
table of their family, every parameter of one center at once
(lip_local_sups, torus_sups; the slope folds the shell optima of level
f(x) by outer radius), through the builders the families use.  A limit is a
running minimum or maximum of f's codes along the center's punctured row.
Lazy or budgeted spaces, centers outside the space, declined rankings and
functions that raise take the region scan.

The module also ships the three registered witness-problem families
(punctured-ball, ball-pairs, torus-slope), each with a per-center optimum
table on finite spaces, and the deterministic parameter truncations derived
from a space's realized distances.
"""

from __future__ import annotations

import functools
import itertools
import weakref
from bisect import bisect_left, bisect_right
from fractions import Fraction
from typing import Callable, Iterable, NamedTuple, Optional, Sequence

import numpy as np

from .errors import (
    DescriptorError,
    EmptyRegion,
    IsolatedPoint,
    NoCoordinates,
    UnknownPoint,
)
from .extreal import FLOAT_TOL, Num, close, fmt, is_exact, is_finite, parse, pos_part, sub
from .scheme import Optima, ParamSpace, Region, WitnessProblem, rank_scores
from .spaces import (
    FiniteMetricSpace,
    MetricSpace,
    Point,
    _check_radius,
    _check_shell,
    ball_pairs,
    ball_points,
    punctured_ball_points,
    torus_points,
)


class FunctionOracle:
    """A function on points, possibly taking +inf (proper: finite somewhere)."""

    def __init__(self, name: str, fn: Callable[[Point], Num],
                 table: Optional[dict] = None):
        self.name = name
        self._fn = fn
        self._table = table
        self._rankings: dict = {}  # space -> its _Rankings, see _rankings

    def __repr__(self) -> str:
        return f"FunctionOracle({self.name!r})"

    def value(self, p: Point) -> Num:
        return self._fn(p)

    def is_finite_at(self, p: Point) -> bool:
        return is_finite(self.value(p))

    def check_proper(self, space: MetricSpace, budget: Optional[int] = None) -> None:
        """Raise unless some enumerated point has a finite value."""
        for p in space.iter_points(budget):
            if self.is_finite_at(p):
                return
        raise ValueError(f"function {self.name!r} has no finite value on the space")

    def tabulate(self, space: MetricSpace, budget: Optional[int] = None) -> dict:
        return {p.id: self.value(p) for p in space.iter_points(budget)}

    def to_descriptor(self, space: Optional[MetricSpace] = None) -> dict:
        if self._table is not None:
            table = self._table
        elif space is not None:
            table = self.tabulate(space)
        else:
            raise ValueError("need a space to tabulate a closed-form function")
        return {"kind": "table",
                "values": {pid: fmt(v) for pid, v in sorted(table.items())}}

    @classmethod
    def from_table(cls, values: dict, name: str = "table") -> "FunctionOracle":
        table = {}
        for pid, v in values.items():
            try:
                table[str(pid)] = parse(v)
            except ValueError as exc:
                raise ValueError(f"{exc} at point {pid!r}") from exc

        def fn(p: Point) -> Num:
            try:
                return table[p.id]
            except KeyError:
                raise UnknownPoint(f"function {name!r} has no value for point {p.id!r}")

        return cls(name, fn, table=table)

    @classmethod
    def from_coords(cls, fn: Callable[[tuple], Num], name: str) -> "FunctionOracle":
        def wrapped(p: Point) -> Num:
            if p.coords is None:
                raise NoCoordinates(f"function {name!r} needs coordinates at {p.id!r}")
            return fn(p.coords)

        return cls(name, wrapped)

    @classmethod
    def from_descriptor(cls, obj: dict) -> "FunctionOracle":
        if not isinstance(obj, dict) or "kind" not in obj:
            raise DescriptorError("function descriptor must be an object with 'kind'")
        kind = obj["kind"]
        if kind == "table":
            values = obj.get("values")
            if not isinstance(values, dict) or not values:
                raise DescriptorError("table function needs a nonempty 'values' object")
            try:
                return cls.from_table(values, name="table")
            except ValueError as exc:
                raise DescriptorError(f"values: {exc}") from exc
        if kind in ("linear", "quadratic", "abs"):
            coeffs = obj.get("coeffs")
            if not isinstance(coeffs, list) or not coeffs:
                raise DescriptorError(f"{kind} function needs a 'coeffs' list")
            try:
                cs = tuple(parse(c) for c in coeffs)
                offset = parse(obj.get("offset", 0))
            except ValueError as exc:
                raise DescriptorError(f"coeffs/offset: {exc}") from exc
            named = {**{f"coeffs[{i}]": c for i, c in enumerate(cs)}, "offset": offset}
            infinite = [field for field, c in named.items() if not is_finite(c)]
            if infinite:  # inf * 0 or inf - inf would make a NaN value
                raise DescriptorError(f"{kind} function: {', '.join(infinite)} must be finite")

            def combine(coords: tuple) -> Num:
                if len(coords) != len(cs):
                    raise DescriptorError(
                        f"{kind} function expects dimension {len(cs)}, got {len(coords)}")
                if kind == "quadratic":
                    return sum(c * v * v for c, v in zip(cs, coords)) + offset
                lin = sum(c * v for c, v in zip(cs, coords)) + offset
                return abs(lin) if kind == "abs" else lin

            return cls.from_coords(combine, name=kind)
        if kind == "step":
            try:
                threshold = parse(obj.get("threshold", 0))
                low = parse(obj.get("low", 0))
                high = parse(obj.get("high", 1))
            except ValueError as exc:
                raise DescriptorError(f"step fields: {exc}") from exc
            axis = obj.get("axis", 0)
            if not isinstance(axis, int) or axis < 0:
                raise DescriptorError("step 'axis' must be a nonnegative integer")

            def step(coords: tuple) -> Num:
                if axis >= len(coords):
                    raise DescriptorError(f"step axis {axis} out of range")
                return high if coords[axis] >= threshold else low

            return cls.from_coords(step, name="step")
        raise DescriptorError(f"unknown function kind {kind!r}")


BUILTIN_FUNCTIONS = {
    "coord": lambda: FunctionOracle.from_coords(lambda c: c[0], "coord"),
    "abs": lambda: FunctionOracle.from_coords(lambda c: abs(c[0]), "abs"),
    "square": lambda: FunctionOracle.from_coords(lambda c: c[0] * c[0], "square"),
    "zero": lambda: FunctionOracle("zero", lambda p: 0),
    "one": lambda: FunctionOracle("one", lambda p: 1),
}


def builtin_function(name: str) -> FunctionOracle:
    try:
        return BUILTIN_FUNCTIONS[name]()
    except KeyError:
        raise DescriptorError(
            f"unknown function {name!r}; builtins: {sorted(BUILTIN_FUNCTIONS)}")


# ---------------------------------------------------------------------------
# Scale grids


def _half(v: Num) -> Num:
    return Fraction(v, 2) if is_exact(v) else v / 2


def midpoint_grid(values: Sequence[Num]) -> tuple:
    """One scale inside every gap of a sorted positive value list.

    Returns half the smallest value, the midpoints of consecutive values,
    and one scale past the largest: every distinct sublevel set of the value
    list is realized by some grid entry.
    """
    vals = sorted(set(values))
    if not vals:
        return ()
    out = [_half(vals[0])]
    for a, b in zip(vals, vals[1:]):
        out.append(_half(a + b))
    out.append(vals[-1] + 1)
    return tuple(out)


def _realized(space, center: Optional[Point] = None) -> tuple:
    """space.realized_distances(center); a lazy space has none to list."""
    if not isinstance(space, FiniteMetricSpace):
        raise ValueError("a lazy space needs an explicit truncation or grid")
    return space.realized_distances(center)


def default_radius_grid(space, center: Optional[Point] = None) -> tuple:
    return midpoint_grid(_realized(space, center))


def default_shell_grid(space, center: Optional[Point] = None) -> tuple:
    radii = default_radius_grid(space, center)
    return tuple((r, s) for i, r in enumerate(radii) for s in radii[i + 1:])


def level_grid(f: FunctionOracle, space, mode: str = "sample",
               budget: Optional[int] = None) -> tuple:
    """t levels: below min f, at values of f, above max f.

    mode "sample" keeps three levels; mode "full" keeps every finite value
    (needed when a closure must cover the level t = f(x) for every center).
    """
    vals = sorted({f.value(p) for p in space.iter_points(budget)
                   if f.is_finite_at(p)})
    if not vals:
        raise ValueError("function has no finite values on the space")
    if mode == "full":
        return tuple([vals[0] - 1] + vals + [vals[-1] + 1])
    if mode == "sample":
        return tuple(dict.fromkeys([vals[0] - 1, vals[len(vals) // 2], vals[-1] + 1]))
    raise ValueError(f"unknown level mode {mode!r}")


# ---------------------------------------------------------------------------
# Rankings shared by the formulas and the optimum tables


def _exact_div(num: Num, den: Num) -> Num:
    # int / int would float-divide; every other exact mix already stays exact
    if isinstance(num, int) and isinstance(den, int):
        q = Fraction(num, den)
        return int(q) if q.denominator == 1 else q
    return num / den


class _Rankings:
    """One function's values, computed once, and rankings on one finite space.

    A ranking is (keys, float flags, value of each code) by point index; keys
    are Optima keys, so a key's code is key // width.  Ranked in a mode, f
    gives one key per point; the pair quotients |f(a) - f(b)| / d(a, b) give
    an n x n key matrix (-1 on the diagonal); the descent quotients
    (t - f(u))^+ / d(x, u) of a center x and level t give one key per point,
    -1 at distance 0 from x, where no shell reaches.  None (f raises, or
    rank_scores declines) leaves the scores to the scan.
    """

    def __init__(self, f: FunctionOracle, space: FiniteMetricSpace):
        self.space = space
        try:
            self.fv: Optional[list] = [f.value(u) for u in space.points]
        except Exception:  # re-raised by the scan where it belongs
            self.fv = None
        self.rank = np.empty(len(space), dtype=np.int64)  # point index -> id rank
        self.rank[list(space.id_order)] = np.arange(len(space))
        self.memo: dict = {}

    def _get(self, key: tuple, make: Callable):
        try:
            return self.memo[key]
        except KeyError:
            got = self.memo[key] = None if self.fv is None else make()
            return got

    def points(self, mode: str) -> Optional[tuple]:
        def make():
            got = _rank_or_none(lambda: self.fv, mode)
            return got and (_arity1_keys(got[1], self.rank, len(self.space)),
                            np.array([_is_float(v) for v in got[0]]), got[2])

        return self._get(("points", mode), make)

    def pairs(self, mode: str) -> Optional[tuple]:
        def make():
            fv, mat, n, rank = self.fv, self.space.matrix, len(self.space), self.rank
            a, b = np.triu_indices(n, 1)
            got = _rank_or_none(lambda: [_exact_div(abs(sub(fv[i], fv[j])), mat[i][j])
                                         for i, j in zip(a.tolist(), b.tolist())], mode)
            if got is None:
                return None
            scores, codes, values = got
            first, second = np.minimum(rank[a], rank[b]), np.maximum(rank[a], rank[b])
            width = n * n
            keys = np.full((n, n), -1, dtype=np.int64)
            keys[a, b] = keys[b, a] = (np.array(codes, dtype=np.int64) * width
                                       + (width - 1 - (first * n + second)))
            floats = np.zeros((n, n), dtype=bool)
            floats[a, b] = floats[b, a] = [_is_float(v) for v in scores]
            return keys, floats, values

        return self._get(("pairs", mode), make)

    def descent(self, i: int, t: Num, mode: str) -> Optional[tuple]:
        def make():
            fv, n = self.fv, len(self.space)
            order, dists = self.space.sorted_row(i)
            a = bisect_right(dists, 0)
            got = _rank_or_none(lambda: [_exact_div(pos_part(sub(t, fv[j])), d)
                                         for j, d in zip(order[a:], dists[a:])], mode)
            if got is None:
                return None
            scores, codes, values = got
            by_point, floats = [-1] * n, [False] * n
            for j, c, v in zip(order[a:], codes, scores):
                by_point[j], floats[j] = c, _is_float(v)
            # code -1 at distance 0 gives a key below -1, clipped to -1
            return np.maximum(_arity1_keys(by_point, self.rank, n), -1), np.array(floats), values

        return self._get(("descent", i, mode, type(t), t), make)


def _rankings(f: FunctionOracle, space: MetricSpace,
              budget: Optional[int] = None) -> Optional[_Rankings]:
    """f's rankings on space, memoised on f; None on lazy or budgeted spaces."""
    if budget is not None or not isinstance(space, FiniteMetricSpace):
        return None
    got = f._rankings.get(space)
    if got is None:
        got = f._rankings[space] = _Rankings(f, space)
    return got


def _table_at(f: FunctionOracle, space: MetricSpace, x: Point, budget: Optional[int],
              build: Callable[[_Rankings, int], Optional[Optima]]) -> Optional[Optima]:
    """x's table of a family, built on f's rankings; None leaves x to the scan
    (lazy or budgeted spaces, a center outside the space, a declined build)."""
    rankings = _rankings(f, space, budget)
    if rankings is None or x not in space:
        return None
    return build(rankings, space.index_of(x))


def _mask(space: FiniteMetricSpace, allowed: set) -> np.ndarray:
    return np.fromiter((u in allowed for u in space.points), bool, len(space))


def _read(table: Optima, space: FiniteMetricSpace, allowed: Optional[set]) -> tuple:
    """The best key and the size of each region of table within allowed."""
    return (table.best, table.size) if allowed is None else table.read(_mask(space, allowed))


# ---------------------------------------------------------------------------
# Limit values along a grid


def _grid_radii(grid) -> tuple:
    radii = tuple(grid)
    if not radii:
        raise ValueError("radius grid is empty")
    return radii


def _restricted(points: Iterable[Point], allowed: Optional[set]) -> list:
    if allowed is None:
        return list(points)
    return [u for u in points if u in allowed]


def _check_center(x: Point, allowed: Optional[set]) -> None:
    if allowed is not None and x not in allowed:
        raise UnknownPoint(f"center {x.id!r} must lie in the restriction set")


def _limit(f: FunctionOracle, space: MetricSpace, x: Point, grid,
           Y: Optional[Iterable[Point]], budget: Optional[int],
           inner: Callable, outer: Callable) -> Num:
    """outer over the grid radii of inner of f over the nonempty punctured balls.

    With f's sup ranking, inner is a running min or max of f's codes along
    x's punctured row within Y, and a ball is a prefix of it.
    """
    radii = _grid_radii(grid)
    allowed = None if Y is None else set(Y)
    _check_center(x, allowed)
    rankings = _rankings(f, space, budget)
    ranked = None if rankings is None or x not in space else rankings.points("sup")
    if ranked is None:
        vals = []
        for r in radii:
            pts = _restricted(punctured_ball_points(space, x, r, budget), allowed)
            if pts:
                vals.append(inner(f.value(u) for u in pts))
    else:
        for r in radii:
            _check_radius(r)
        points, dists = _sorted_row(space, space.index_of(x), True)
        if allowed is not None:
            keep = _mask(space, allowed)[points]
            points, dists = points[keep], [d for d, k in zip(dists, keep.tolist()) if k]
        keys, _, values = ranked
        run = (np.minimum if inner is min else np.maximum).accumulate(keys[points] // len(space))
        vals = [values[run[k - 1]] for k in (bisect_left(dists, r) for r in radii) if k]
    if not vals:
        raise IsolatedPoint(f"every punctured ball at {x.id!r} along the grid is empty")
    return outer(vals)


def liminf_at(f: FunctionOracle, space: MetricSpace, x: Point, grid,
              Y: Optional[Iterable[Point]] = None,
              budget: Optional[int] = None) -> Num:
    """sup over grid radii of inf of f over the punctured ball (within Y).

    Monotone under grid refinement.  Raises IsolatedPoint when every
    punctured ball along the grid is empty.  Reads f's sup ranking where one
    applies and scans the balls otherwise.
    """
    return _limit(f, space, x, grid, Y, budget, min, max)


def limsup_at(f: FunctionOracle, space: MetricSpace, x: Point, grid,
              Y: Optional[Iterable[Point]] = None,
              budget: Optional[int] = None) -> Num:
    """inf over grid radii of sup of f over the punctured ball (within Y),
    read off f's sup ranking as liminf_at is."""
    return _limit(f, space, x, grid, Y, budget, max, min)


def continuity_check(f: FunctionOracle, space: MetricSpace, x: Point, grid,
                     Y: Optional[Iterable[Point]] = None, tol: Num = 0,
                     budget: Optional[int] = None) -> bool:
    """True when grid liminf and limsup both agree with f(x) up to tol."""
    Y = None if Y is None else tuple(Y)  # both limits read it
    fx = f.value(x)
    lo = liminf_at(f, space, x, grid, Y, budget)
    hi = limsup_at(f, space, x, grid, Y, budget)
    return close(lo, fx, tol) and close(hi, fx, tol)


# ---------------------------------------------------------------------------
# Pairwise Lipschitz quantities


class PairSup(NamedTuple):
    value: object  # Num; 0 when no pairs exist
    pairs: int  # number of unordered pairs scanned


def _pair_quotient(f: FunctionOracle, space: MetricSpace, a: Point, b: Point) -> Num:
    return _exact_div(abs(sub(f.value(a), f.value(b))), space.distance(a, b))


def lip_local_sups(f: FunctionOracle, space: MetricSpace, x: Point, radii: Sequence[Num],
                   Y: Optional[Iterable[Point]] = None,
                   budget: Optional[int] = None) -> list[PairSup]:
    """lip_local_sup of B(x, r) ∩ Y for every r in radii, in one read of x.

    Reads x's ball-pairs [sup] table where f's pair quotients rank, and scans
    the pairs otherwise.  The scan starts at int 0 and keeps the first larger
    quotient, so both routes give int 0 where no quotient is positive.
    """
    radii = tuple(radii)
    allowed = None if Y is None else set(Y)
    _check_center(x, allowed)
    for r in radii:
        _check_radius(r)
    table = _table_at(f, space, x, budget, lambda rk, i: _pairs_table(rk, i, radii, "sup"))
    if table is None:
        sups = []
        for r in radii:
            pts = _restricted(ball_points(space, x, r, budget), allowed)
            pairs = itertools.combinations(pts, 2)
            best = max(itertools.chain((0,), (_pair_quotient(f, space, a, b) for a, b in pairs)))
            sups.append(PairSup(best, len(pts) * (len(pts) - 1) // 2))
        return sups
    best, sizes = _read(table, space, allowed)
    tops = [table.value(k, key) if key >= 0 else 0 for k, key in enumerate(best.tolist())]
    return [PairSup(v if v > 0 else 0, size // 2) for v, size in zip(tops, sizes)]


def lip_local_sup(f: FunctionOracle, space: MetricSpace, x: Point, r: Num,
                  Y: Optional[Iterable[Point]] = None,
                  budget: Optional[int] = None) -> PairSup:
    """sup of |f(u1) - f(u2)| / d(u1, u2) over distinct pairs of B(x, r) ∩ Y.

    Returns PairSup(0, 0) when the ball holds fewer than two points; the
    one-radius read of lip_local_sups.
    """
    return lip_local_sups(f, space, x, (r,), Y, budget)[0]


def lip_modulus(f: FunctionOracle, space: MetricSpace, x: Point, grid,
                Y: Optional[Iterable[Point]] = None,
                budget: Optional[int] = None) -> Num:
    """min of the local pairwise supremum at x over grid radii whose ball holds a pair.

    The least Lipschitz constant valid on some ball around x, discretely,
    folded from one lip_local_sups read of x.  Raises IsolatedPoint when no
    ball (within Y) holds a pair."""
    sups = [v for v, pairs in lip_local_sups(f, space, x, _grid_radii(grid), Y, budget) if pairs]
    if not sups:
        raise IsolatedPoint(f"no ball at {x.id!r} along the grid holds a pair")
    return min(sups)


# ---------------------------------------------------------------------------
# Torus suprema and slopes


def _descent_quotient(t: Num, f: FunctionOracle, space: MetricSpace,
                      x: Point, u: Point) -> Num:
    num = pos_part(sub(t, f.value(u)))
    return _exact_div(num, space.distance(x, u))


def torus_sups(f: FunctionOracle, space: MetricSpace, x: Point, params: Sequence[tuple],
               Y: Optional[Iterable[Point]] = None,
               budget: Optional[int] = None) -> list:
    """torus_sup at every (t, r, s) in params, in one read of x; None where the
    (restricted) shell is empty.

    Reads x's torus-slope [sup] table where every level's descent quotients
    rank, and scans the shells otherwise, where the first maximal member in
    enumeration order gives a shell's value.
    """
    params = tuple(params)
    allowed = None if Y is None else set(Y)
    _check_center(x, allowed)
    for _, r, s in params:
        _check_shell(r, s)
    table = params and _table_at(  # an empty truncation has no level to rank
        f, space, x, budget, lambda rk, i: _torus_table(rk, i, _torus_layout(params), "sup"))
    if not table:
        sups = []
        for t, r, s in params:
            pts = _restricted(torus_points(space, x, r, s, budget), allowed)
            sups.append(max((_descent_quotient(t, f, space, x, u) for u in pts), default=None))
        return sups
    return [table.value(k, key) if key >= 0 else None
            for k, key in enumerate(_read(table, space, allowed)[0].tolist())]


def torus_sup(f: FunctionOracle, space: MetricSpace, x: Point, t: Num, r: Num, s: Num,
              Y: Optional[Iterable[Point]] = None,
              budget: Optional[int] = None) -> Num:
    """sup of (t - f(u))^+ / d(x, u) over the shell r < d(x, u) < s (within Y).

    The one-parameter read of torus_sups.  Raises EmptyRegion when the
    (restricted) shell is empty.
    """
    best = torus_sups(f, space, x, ((t, r, s),), Y, budget)[0]
    if best is None:
        raise EmptyRegion(f"empty shell ({fmt(r)}, {fmt(s)}) at {x.id!r}")
    return best


def slope_at(f: FunctionOracle, space: MetricSpace, x: Point,
             grid: Optional[Sequence[tuple]] = None,
             Y: Optional[Iterable[Point]] = None,
             budget: Optional[int] = None) -> Num:
    """Descent slope at x: inf over s of sup over r < s of the shell supremum.

    The level is t = f(x); by the sign conventions (t - f(u))^+ with
    +inf - +inf = 0, the value is well defined for proper f, and is +inf
    exactly when every realized inner supremum is.  Empty shells contribute
    nothing; if every shell in the grid (default: every shell of x's
    realized radii) is empty the point is isolated.  Where the descent
    quotients of (x, f(x)) rank, x's torus-slope table gives every shell's
    best key, folded by outer radius; otherwise the shells are scanned and
    each s keeps its first maximal shell in grid order.
    """
    shells = tuple(grid or ()) or default_shell_grid(space, x)
    if not shells:
        raise IsolatedPoint(f"no shells realized at {x.id!r}")
    allowed = None if Y is None else set(Y)
    _check_center(x, allowed)
    t = f.value(x)
    for r, s in shells:
        _check_shell(r, s)
    radii, inner, outer = _radius_layout(shells)
    layout = ([t], np.zeros(len(shells), dtype=np.int64), radii, inner, outer)
    table = _table_at(f, space, x, budget, lambda rk, i: _torus_table(rk, i, layout, "sup"))
    if table is None:
        inner: dict = {}
        scanned = torus_sups(f, space, x, [(t, r, s) for r, s in shells], allowed, budget)
        for (_, s), sup in zip(shells, scanned):
            if sup is not None and (s not in inner or sup > inner[s]):
                inner[s] = sup
        sups = list(inner.values())
    else:
        tops = np.full(len(radii), -1, dtype=np.int64)  # best key per outer radius
        np.maximum.at(tops, outer, _read(table, space, allowed)[0])
        tops = tops[tops >= 0]
        sups = [table.value(0, int(tops.min()))] if tops.size else []
    if not sups:
        raise IsolatedPoint(f"every shell at {x.id!r} is empty")
    return min(sups)


# ---------------------------------------------------------------------------
# Products: slices, the Lipschitz bound in the second variable, partial slopes


# The live slices by (id(f2), y).  A slice's closure holds f2, so f2's id is not
# reused while its entry exists, and the entry goes with the slice's last holder
# (keyed weakly on f2 instead, the slices would keep f2 alive).
_slices: weakref.WeakValueDictionary = weakref.WeakValueDictionary()


def slice_oracle(f2: Callable[[Point, Point], Num], y: Point) -> FunctionOracle:
    """The oracle of u -> f2(u, y), one per (f2, y) while anything holds it, so
    the slice problems of a product closure and partial_slope share its rankings."""
    key = (id(f2), y)
    got = _slices.get(key)
    if got is None:
        got = _slices[key] = FunctionOracle(f"slice@{y.id}", lambda u: f2(u, y))
    return got


def lipschitz_second_witness(f2: Callable[[Point, Point], Num],
                             space1: MetricSpace, space2: MetricSpace, k: Num,
                             budget: Optional[int] = None) -> Optional[tuple]:
    """First triple (x, y1, y2) violating |f(x,y1) - f(x,y2)| <= k d2(y1,y2).

    Scans points in enumeration order, at most budget triples; None when no
    violation is found.  Exact values compare exactly; float chains get the
    1e-12 slack.
    """
    count = 0
    for x in space1.iter_points(budget):
        pts2 = list(space2.iter_points(budget))
        for i, y1 in enumerate(pts2):
            for y2 in pts2[i + 1:]:
                count += 1
                if budget is not None and count > budget:
                    return None
                gap = abs(f2(x, y1) - f2(x, y2))
                bound = k * space2.distance(y1, y2)
                slack = 0 if is_exact(gap) and is_exact(bound) else FLOAT_TOL
                if gap > bound + slack:
                    return (x, y1, y2)
    return None


def verify_lipschitz_second(f2: Callable[[Point, Point], Num],
                            space1: MetricSpace, space2: MetricSpace, k: Num,
                            budget: Optional[int] = None) -> bool:
    """True when no scanned triple violates the k-Lipschitz bound in y."""
    return lipschitz_second_witness(f2, space1, space2, k, budget) is None


def partial_slope(f2: Callable[[Point, Point], Num], space1: MetricSpace,
                  x: Point, y: Point, grid: Optional[Sequence[tuple]] = None,
                  Y1: Optional[Iterable[Point]] = None,
                  budget: Optional[int] = None) -> Num:
    """Slope of the slice u -> f(u, y) at x over the first factor (within Y1).

    The slope reads the rankings of y's slice_oracle.  It is separably
    determined when f is Lipschitz in y, which verify_lipschitz_second checks.
    """
    return slope_at(slice_oracle(f2, y), space1, x, grid, Y1, budget)


# ---------------------------------------------------------------------------
# Registered witness-problem families


def radius_truncation(space, density: Optional[int] = None) -> tuple:
    """Scalar radii realizing every distinct ball of the space.

    One value inside each gap between consecutive realized distances, plus
    half the minimum and one past the diameter.  density caps the grid by
    even subsampling (first and last kept).
    """
    grid = midpoint_grid(_realized(space))
    if density is not None and density >= 2 and len(grid) > density:
        step = (len(grid) - 1) / (density - 1)
        idx = sorted({round(i * step) for i in range(density)})
        grid = tuple(grid[i] for i in idx)
    return grid


def shell_truncation(space, t_values: Sequence[Num],
                     density: Optional[int] = None) -> tuple:
    """All (t, r, s) with r < s from the radius grid and t from t_values."""
    radii = radius_truncation(space, density)
    shells = [(r, s) for i, r in enumerate(radii) for s in radii[i + 1:]]
    return tuple((t, r, s) for t in t_values for (r, s) in shells)


# Optimum tables: each family reads the scores its regions can meet, ranked
# once per function (_Rankings), and every region's optimum off the center's
# sorted distance row.


def _valid_params(params: Sequence, ok: Callable) -> bool:
    """True when the region builders accept every parameter (the scan raises otherwise)."""
    try:
        return bool(params) and all(ok(p) for p in params)
    except (TypeError, ValueError):
        return False


def _optimum_tables(f: FunctionOracle, space: MetricSpace, budget: Optional[int], params_ok: bool,
                    build: Callable[[_Rankings, int], Optional[Optima]]):
    """Memoized per-center optimum tables, or None where only the scan applies.

    Lazy spaces, budgeted regions and truncations holding a parameter the
    region builders reject are left to the scan, and so is a center whose
    build returns None.
    """
    if budget is not None or not isinstance(space, FiniteMetricSpace) or not params_ok:
        return None
    tables = functools.cache(lambda i: build(_rankings(f, space), i))
    return lambda x: tables(space.index_of(x)) if x in space else None


def _rank_or_none(score_all: Callable[[], list], mode: str) -> Optional[tuple]:
    """(scores, codes, values) of score_all(), or None to leave them to the scan.

    None when rank_scores rejects the scores, or when computing or comparing
    them raises: the scan then raises that error at the (x, p) that meets it.
    """
    try:
        scores = score_all()
        ranked = rank_scores(scores, mode)
    except Exception:  # re-raised by the scan where it belongs
        return None
    return None if ranked is None else (scores, *ranked)


def _is_float(v: Num) -> bool:
    return type(v) is float and is_finite(v)


def _sorted_row(space: FiniteMetricSpace, i: int,
                punctured: bool) -> tuple[np.ndarray, list]:
    """Point indices and distances of the sorted row of point i, without i when punctured."""
    order, dists = space.sorted_row(i)
    keep = [k for k, j in enumerate(order) if j != i or not punctured]
    return np.array([order[k] for k in keep], dtype=np.int64), [dists[k] for k in keep]


def _arity1_keys(codes: Sequence[int], ranks: np.ndarray, width: int) -> np.ndarray:
    """Keys of single points: score code first, then the least id rank."""
    return np.array(codes, dtype=np.int64) * width + (width - 1 - ranks)


def _masked(keys: np.ndarray, points: np.ndarray):
    return lambda mask: keys if mask is None else np.where(mask[points], keys, -1)


def _ball_ends(dists: list, radii: Sequence[Num]) -> np.ndarray:
    return np.array([bisect_left(dists, r) for r in radii], dtype=np.int64)


# The table builders, one per family, shared by the factories and the
# formulas: (f's rankings on a finite space, a center index, the parameters)
# to the center's Optima, or None when a ranking is declined.  Parameters are
# checked by the caller.


def _points_table(rankings: _Rankings, i: int, radii: Sequence[Num],
                  mode: str) -> Optional[Optima]:
    """Punctured balls B(x_i, r) \\ {x_i}: prefixes of the punctured sorted row."""
    got = rankings.points(mode)
    if got is None:
        return None
    keys, floats, values = got
    space = rankings.space
    points, dists = _sorted_row(space, i, True)
    zeros = np.zeros(len(radii), dtype=np.int64)
    return Optima(points, _masked(keys[points][None, :], points), zeros, zeros,
                  _ball_ends(dists, radii), [values], len(space), 1,
                  lambda k: (space.points[space.id_order[k]],), floats[points][None, :])


def _pairs_table(rankings: _Rankings, i: int, radii: Sequence[Num],
                 mode: str) -> Optional[Optima]:
    """Pairs of balls B(x_i, r): a ball is a prefix of the sorted row, and each
    point joining it brings the pairs it forms with the points before it, so
    one range maximum serves every radius."""
    got = rankings.pairs(mode)
    if got is None:
        return None
    pair_keys, pair_floats, values = got
    space = rankings.space
    n, ids = len(space), space.id_order
    points, dists = _sorted_row(space, i, False)
    block = np.ix_(points, points)

    def keys_for(mask):
        keys = pair_keys[block]
        if mask is not None:
            inside = mask[points]
            keys = np.where(inside[:, None] & inside[None, :], keys, -1)
        return (np.tril(keys + 1, -1).max(axis=1) - 1)[None, :]

    zeros = np.zeros(len(radii), dtype=np.int64)
    floats = np.tril(pair_floats[block], -1).any(axis=1)[None, :]
    return Optima(points, keys_for, zeros, zeros, _ball_ends(dists, radii), [values], n * n, 2,
                  lambda k: (space.points[ids[k // n]], space.points[ids[k % n]]), floats)


def _radius_layout(shells: Iterable[tuple]) -> tuple[list, np.ndarray, np.ndarray]:
    """The distinct radii of (r, s) shells, by value, and each shell's r and s
    as indices into them."""
    radii: dict = {}
    index = [(radii.setdefault(r, len(radii)), radii.setdefault(s, len(radii)))
             for r, s in shells]
    inner, outer = np.array(index, dtype=np.int64).reshape(-1, 2).T
    return list(radii), inner, outer


def _torus_layout(params: Sequence[tuple]) -> tuple:
    """(levels, row of each parameter, radii, inner, outer) of (t, r, s) triples:
    levels by type and value, since the quotients' types follow t's."""
    levels: dict = {}
    rows = [levels.setdefault((type(t), t), len(levels)) for t, _, _ in params]
    return ([t for _, t in levels], np.array(rows, dtype=np.int64),
            *_radius_layout((r, s) for _, r, s in params))


def _torus_table(rankings: _Rankings, i: int, layout: tuple, mode: str) -> Optional[Optima]:
    """Shells r < d(x_i, u) < s at each level t: one ranking of the descent
    quotients per level, laid out along the punctured sorted row, where a
    shell is a slice."""
    levels, rows, radii, inner, outer = layout
    ranked = [rankings.descent(i, t, mode) for t in levels]
    if None in ranked:
        return None
    space = rankings.space
    points, dists = _sorted_row(space, i, True)
    lo = np.array([bisect_right(dists, r) for r in radii], dtype=np.int64)[inner]
    keys, floats, values = zip(*ranked)
    return Optima(points, _masked(np.stack(keys)[:, points], points), rows, lo,
                  _ball_ends(dists, radii)[outer], list(values), len(space), 1,
                  lambda k: (space.points[space.id_order[k]],), np.stack(floats)[:, points])


def punctured_ball_problem(space: MetricSpace, f: FunctionOracle,
                           mode: str = "sup",
                           truncation: Optional[Sequence[Num]] = None,
                           budget: Optional[int] = None) -> WitnessProblem:
    """Arity-1 problem: region B(x, r) \\ {x}, score f(u).

    Scores do not depend on x, so the table reads f's ranking in mode (in
    sup mode the one liminf_at and limsup_at read).
    """
    trunc = radius_truncation(space) if truncation is None else tuple(truncation)

    def region(x: Point, r: Num) -> Region:
        return Region(1, tuple((u,) for u in punctured_ball_points(space, x, r, budget)))

    def member(x: Point, r: Num, u: tuple) -> bool:
        return u[0] != x and space.distance(x, u[0]) < r

    def score(z: tuple, u: tuple) -> Num:
        return f.value(u[0])

    return WitnessProblem(
        name=f"punctured-ball[{mode}]", space=space,
        params=ParamSpace(trunc), arity=1, mode=mode,
        region=region, member=member, score=score,
        optima=_optimum_tables(f, space, budget, _valid_params(trunc, lambda r: r > 0),
                               lambda rk, i: _points_table(rk, i, trunc, mode)))


def ball_pairs_problem(space: MetricSpace, f: FunctionOracle,
                       mode: str = "sup",
                       truncation: Optional[Sequence[Num]] = None,
                       budget: Optional[int] = None) -> WitnessProblem:
    """Arity-2 problem: distinct pairs of B(x, r), score |f(u1)-f(u2)|/d.

    The table reads f's ranked pair quotients (in sup mode the ones
    lip_local_sups reads).
    """
    trunc = radius_truncation(space) if truncation is None else tuple(truncation)
    cache: dict = {}

    def region(x: Point, r: Num) -> Region:
        return ball_pairs(space, x, r, budget)

    def member(x: Point, r: Num, u: tuple) -> bool:
        a, b = u
        return a != b and space.distance(x, a) < r and space.distance(x, b) < r

    def score(z: tuple, u: tuple) -> Num:
        a, b = u
        key = (a.id, b.id) if a.id <= b.id else (b.id, a.id)
        if key not in cache:
            cache[key] = _pair_quotient(f, space, a, b)
        return cache[key]

    return WitnessProblem(
        name=f"ball-pairs[{mode}]", space=space,
        params=ParamSpace(trunc), arity=2, mode=mode,
        region=region, member=member, score=score,
        optima=_optimum_tables(f, space, budget, _valid_params(trunc, lambda r: r > 0),
                               lambda rk, i: _pairs_table(rk, i, trunc, mode)))


def torus_slope_problem(space: MetricSpace, f: FunctionOracle,
                        mode: str = "sup",
                        truncation: Optional[Sequence[tuple]] = None,
                        t_mode: str = "sample",
                        budget: Optional[int] = None) -> WitnessProblem:
    """Arity-1 problem: shells r < d(x,u) < s, score (t - f(u))^+ / d(x,u).

    At x each level t gives one ranking of the descent quotients (shared
    with torus_sups and slope_at through f).
    """
    if truncation is None:
        truncation = shell_truncation(space, level_grid(f, space, t_mode))
    trunc = tuple(truncation)

    def region(x: Point, p: tuple) -> Region:
        _, r, s = p
        return Region(1, tuple((u,) for u in torus_points(space, x, r, s, budget)))

    def member(x: Point, p: tuple, u: tuple) -> bool:
        _, r, s = p
        return r < space.distance(x, u[0]) < s

    memo: dict = {}  # the region scan meets each (t, x, u) once per shell around u

    def score(z: tuple, u: tuple) -> Num:
        x, p = z
        key = (type(p[0]), p[0], x.id, u[0].id)
        v = memo.get(key)
        if v is None:
            v = memo[key] = _descent_quotient(p[0], f, space, x, u[0])
        return v

    layout = functools.cache(lambda: _torus_layout(trunc))
    return WitnessProblem(
        name=f"torus-slope[{mode}]", space=space,
        params=ParamSpace(trunc), arity=1, mode=mode,
        region=region, member=member, score=score,
        optima=_optimum_tables(f, space, budget,
                               _valid_params(trunc, lambda p: len(p) == 3 and 0 < p[1] < p[2]),
                               lambda rk, i: _torus_table(rk, i, layout(), mode)))


PROBLEM_FAMILIES = {
    "punctured-ball": punctured_ball_problem,
    "ball-pairs": ball_pairs_problem,
    "torus-slope": torus_slope_problem,
}


def problem_from_descriptor(space: MetricSpace, f: FunctionOracle,
                            obj: dict) -> WitnessProblem:
    """Build a registered problem from {"family", "mode", ...} JSON."""
    if not isinstance(obj, dict):
        raise DescriptorError("problem descriptor must be an object")
    family = obj.get("family")
    if family not in PROBLEM_FAMILIES:
        raise DescriptorError(
            f"unknown family {family!r}; registered: {sorted(PROBLEM_FAMILIES)}")
    mode = obj.get("mode", "sup")
    if mode not in ("sup", "inf"):
        raise DescriptorError(f"mode must be 'sup' or 'inf', got {mode!r}")
    kwargs: dict = {"mode": mode}
    if family == "torus-slope":
        t_mode = kwargs["t_mode"] = obj.get("t_mode", "sample")
        if t_mode not in ("sample", "full"):
            raise DescriptorError(f"t_mode must be 'sample' or 'full', got {t_mode!r}")
    density = obj.get("q_density")
    if density is not None:
        if not isinstance(density, int) or density < 2:
            raise DescriptorError("q_density must be an integer >= 2")
        kwargs["truncation"] = (  # a truncation leaves t_mode unused
            shell_truncation(space, level_grid(f, space, t_mode), density)
            if family == "torus-slope" else radius_truncation(space, density))
    return PROBLEM_FAMILIES[family](space, f, **kwargs)
