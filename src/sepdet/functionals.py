"""Variational quantities over a space and their restricted counterparts.

Every quantity here is a finite formula: discrete liminf/limsup along a
radius grid, the pairwise Lipschitz supremum over a ball, the torus supremum
(t - f(u))^+ / d(x, u), and the descent slope as an inf-sup-sup sweep over
shells.  Each operation takes an optional Y argument; when given, the
regions are intersected with Y, which is all the restriction identities need.

On a finite space without a budget the formulas read f's rankings, memoised
on the function oracle per space and shared with the optimum tables of the
families built on f: a limit is a running minimum or maximum of f's codes
along the center's punctured row, a ball's pairwise supremum the largest
code in a block of the ranked pair quotients, and a shell's supremum the
largest descent-quotient code of its (center, level) along a slice of the
center's sorted row.  Lazy or budgeted spaces, centers outside the space,
declined rankings and functions that raise take the region scan.

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
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Iterator, NamedTuple, Optional, Sequence

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
        table = {str(pid): parse(v) for pid, v in values.items()}

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


@dataclass(frozen=True)
class ScaleGrid:
    """Finite radius/shell/level grids swept by the discrete formulas."""

    radii: tuple = ()
    shells: tuple = ()  # (r, s) pairs with r < s
    levels: tuple = ()  # t values for torus scores


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


def default_radius_grid(space, center: Optional[Point] = None) -> tuple:
    return midpoint_grid(space.realized_distances(center))


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

        try:
            return self._get(("descent", i, mode, type(t), t), make)
        except TypeError:  # an unhashable level is left to the scan
            return None


def _rankings(f: FunctionOracle, space: MetricSpace,
              budget: Optional[int] = None) -> Optional[_Rankings]:
    """f's rankings on space, memoised on f; None on lazy or budgeted spaces."""
    if budget is not None or not isinstance(space, FiniteMetricSpace):
        return None
    got = f._rankings.get(space)
    if got is None:
        got = f._rankings[space] = _Rankings(f, space)
    return got


def _center_of(f: FunctionOracle, space: MetricSpace, x: Point,
               budget: Optional[int]) -> Optional[tuple[_Rankings, int]]:
    """f's rankings on space and x's index, or None to leave x to the scan."""
    rankings = _rankings(f, space, budget)
    if rankings is None:
        return None
    try:
        return rankings, space.index_of(x)
    except UnknownPoint:  # the scan raises it where it belongs
        return None


def _reads(f: FunctionOracle, space: MetricSpace, x: Point, radii: tuple,
           allowed: Optional[set], budget: Optional[int], ranking: Callable,
           punctured: bool) -> Optional[tuple]:
    """ranking(x's rankings, "sup"), x's (punctured) sorted row within allowed
    as point indices, and the count of them in each radius's ball, the radii
    checked as the scan checks them; None leaves x to the scan."""
    at = _center_of(f, space, x, budget)
    ranked = None if at is None else ranking(at[0], "sup")
    if ranked is None:
        return None
    for r in radii:
        _check_radius(r)
    points, dists = _sorted_row(space, at[1], punctured)
    if allowed is not None:
        keep = np.fromiter((u in allowed for u in space.points), bool, len(space))[points]
        points, dists = points[keep], [d for d, k in zip(dists, keep.tolist()) if k]
    return ranked, points, [bisect_left(dists, r) for r in radii]


# ---------------------------------------------------------------------------
# Limit values along a grid


def _grid_radii(grid) -> tuple:
    radii = grid.radii if isinstance(grid, ScaleGrid) else tuple(grid)
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
    """outer over the grid radii of inner of f over the nonempty punctured balls;
    with a ranking, inner is a running min or max of f's codes along x's row."""
    radii = _grid_radii(grid)
    allowed = None if Y is None else set(Y)
    _check_center(x, allowed)
    got = _reads(f, space, x, radii, allowed, budget, _Rankings.points, True)
    if got is None:
        vals = []
        for r in radii:
            pts = _restricted(punctured_ball_points(space, x, r, budget), allowed)
            if pts:
                vals.append(inner(f.value(u) for u in pts))
    else:
        (keys, _, values), points, counts = got
        run = (np.minimum if inner is min else np.maximum).accumulate(keys[points] // len(space))
        vals = [values[run[k - 1]] for k in counts if k]
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


def _pair_sups(f: FunctionOracle, space: MetricSpace, x: Point, radii: tuple,
               Y: Optional[Iterable[Point]], budget: Optional[int]) -> list:
    """PairSup of B(x, r) ∩ Y for each r in radii.

    With a ranking, the balls are prefixes of x's sorted row, and a running
    maximum of the best pair each point forms with the points before it
    serves every radius.  The scan starts at int 0 and keeps the first larger
    quotient, so both routes give int 0 where no quotient is positive.
    """
    allowed = None if Y is None else set(Y)
    _check_center(x, allowed)
    got = _reads(f, space, x, radii, allowed, budget, _Rankings.pairs, False)
    if got is not None:
        (keys, _, values), points, counts = got
        ball = points[:max(counts)]
        block = np.tril(keys[np.ix_(ball, ball)] + 1, -1)  # 0 where no pair
        best = np.maximum.accumulate(block.max(axis=1, initial=0)).tolist()
        tops = [values[(best[k - 1] - 1) // len(space) ** 2] if k > 1 else 0 for k in counts]
        return [PairSup(v if v > 0 else 0, k * (k - 1) // 2) for v, k in zip(tops, counts)]
    sups = []
    for r in radii:
        pts = _restricted(ball_points(space, x, r, budget), allowed)
        best: Num = 0
        for a, b in itertools.combinations(pts, 2):
            q = _pair_quotient(f, space, a, b)
            if q > best:
                best = q
        sups.append(PairSup(best, len(pts) * (len(pts) - 1) // 2))
    return sups


def lip_local_sup(f: FunctionOracle, space: MetricSpace, x: Point, r: Num,
                  Y: Optional[Iterable[Point]] = None,
                  budget: Optional[int] = None) -> PairSup:
    """sup of |f(u1) - f(u2)| / d(u1, u2) over distinct pairs of B(x, r) ∩ Y.

    Returns PairSup(0, 0) when the ball holds fewer than two points.  Reads
    f's ranked pair quotients where they apply, and scans the pairs otherwise.
    """
    return _pair_sups(f, space, x, (r,), Y, budget)[0]


def lip_modulus(f: FunctionOracle, space: MetricSpace, x: Point, grid,
                Y: Optional[Iterable[Point]] = None,
                budget: Optional[int] = None) -> Num:
    """min of the local pairwise supremum at x over grid radii whose ball holds a pair.

    The least Lipschitz constant valid on some ball around x, discretely; one
    pass along x's row of ranked pair quotients serves every radius where they
    apply.  Raises IsolatedPoint when no ball (within Y) holds a pair."""
    sups = [v for v, pairs in _pair_sups(f, space, x, _grid_radii(grid), Y, budget) if pairs]
    if not sups:
        raise IsolatedPoint(f"no ball at {x.id!r} along the grid holds a pair")
    return min(sups)


# ---------------------------------------------------------------------------
# Torus suprema and slopes


def _descent_quotient(t: Num, f: FunctionOracle, space: MetricSpace,
                      x: Point, u: Point) -> Num:
    num = pos_part(sub(t, f.value(u)))
    return _exact_div(num, space.distance(x, u))


def _shell_codes(f: FunctionOracle, space: MetricSpace, x: Point, t: Num, shells: Iterable,
                 allowed: Optional[set], budget: Optional[int]) -> Optional[tuple]:
    """The largest code of each shell r < d(x, u) < s within allowed in the
    sup-ranked descent quotients of (x, t), -1 where it holds none, and the
    value of each code; None leaves x to the scan, and shells unread.

    A shell is a slice of x's sorted row, where r > 0 skips distance 0.
    """
    at = _center_of(f, space, x, budget)
    ranked = None if at is None else at[0].descent(at[1], t, "sup")
    if ranked is None:
        return None
    keys, _, values = ranked
    key, n, points = keys.item, len(keys), space.points
    order, dists = space.sorted_row(at[1])
    codes = []
    for r, s in shells:
        a = bisect_right(dists, r)
        shell = order[a:bisect_left(dists, s, a)]  # s > r: the shell ends at a or later
        if allowed is not None:
            shell = [j for j in shell if points[j] in allowed]
        codes.append(max(map(key, shell), default=-1) // n)
    return codes, values


def torus_sup(f: FunctionOracle, space: MetricSpace, x: Point, t: Num, r: Num, s: Num,
              Y: Optional[Iterable[Point]] = None,
              budget: Optional[int] = None) -> Num:
    """sup of (t - f(u))^+ / d(x, u) over the shell r < d(x, u) < s (within Y).

    Reads the largest of the shell's ranked descent quotients of (x, t);
    scans the shell where no ranking applies.  Raises EmptyRegion when the
    (restricted) shell is empty.
    """
    allowed = None if Y is None else set(Y)
    _check_center(x, allowed)
    _check_shell(r, s)
    read = _shell_codes(f, space, x, t, ((r, s),), allowed, budget)
    if read is None:
        pts = _restricted(torus_points(space, x, r, s, budget), allowed)
        best = max((_descent_quotient(t, f, space, x, u) for u in pts), default=None)
    else:
        (code,), values = read
        best = None if code < 0 else values[code]
    if best is None:
        raise EmptyRegion(f"empty shell ({fmt(r)}, {fmt(s)}) at {x.id!r}")
    return best


def _widest(shells: Iterable) -> Iterator[tuple]:
    """The shell with the least r of each outer radius s, which holds the
    others (the shells of one s nest as r falls), every shell checked.  Lazy:
    a center left to the scan checks its shells in grid order instead."""
    least: dict = {}
    for r, s in shells:
        _check_shell(r, s)
        if s not in least or r < least[s]:
            least[s] = r
    for s, r in least.items():
        yield r, s


def slope_at(f: FunctionOracle, space: MetricSpace, x: Point,
             grid: Optional[ScaleGrid] = None,
             Y: Optional[Iterable[Point]] = None,
             budget: Optional[int] = None) -> Num:
    """Descent slope at x: inf over s of sup over r < s of the shell supremum.

    The level is t = f(x); by the sign conventions (t - f(u))^+ with
    +inf - +inf = 0, the value is well defined for proper f, and is +inf
    exactly when every realized inner supremum is.  Empty shells contribute
    nothing; if every shell in the grid is empty the point is isolated.
    Every shell is read off the ranked descent quotients of (x, f(x)) where
    they apply, and scanned otherwise.
    """
    shells = grid.shells if isinstance(grid, ScaleGrid) else tuple(grid or ())
    if not shells:
        shells = default_shell_grid(space, x)
    if not shells:
        raise IsolatedPoint(f"no shells realized at {x.id!r}")
    allowed = None if Y is None else set(Y)
    _check_center(x, allowed)
    t = f.value(x)
    read = _shell_codes(f, space, x, t, _widest(shells), allowed, budget)
    if read is not None:
        codes = [c for c in read[0] if c >= 0]
        if not codes:
            raise IsolatedPoint(f"every shell at {x.id!r} is empty")
        return read[1][min(codes)]
    inner: dict = {}
    for r, s in shells:
        pts = _restricted(torus_points(space, x, r, s, budget), allowed)
        if not pts:
            continue
        sup = max(_descent_quotient(t, f, space, x, u) for u in pts)
        if s not in inner or sup > inner[s]:
            inner[s] = sup
    if not inner:
        raise IsolatedPoint(f"every shell at {x.id!r} is empty")
    return min(inner.values())


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
                  x: Point, y: Point, grid: Optional[ScaleGrid] = None,
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
    grid = midpoint_grid(space.realized_distances())
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


def _optimum_tables(space: MetricSpace, budget: Optional[int], params_ok: bool,
                    build: Callable[[int], Optional[Optima]]):
    """Memoized per-center optimum tables, or None where only the scan applies.

    Lazy spaces, budgeted regions and truncations holding a parameter the
    region builders reject are left to the scan, and so is a center whose
    build returns None.
    """
    if budget is not None or not isinstance(space, FiniteMetricSpace) or not params_ok:
        return None
    cache: dict = {}

    def optima(x: Point) -> Optional[Optima]:
        if x not in space:
            return None
        i = space.index_of(x)
        if i not in cache:
            cache[i] = build(i)
        return cache[i]

    return optima


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


def punctured_ball_problem(space: MetricSpace, f: FunctionOracle,
                           mode: str = "sup",
                           truncation: Optional[Sequence[Num]] = None,
                           budget: Optional[int] = None) -> WitnessProblem:
    """Arity-1 problem: region B(x, r) \\ {x}, score f(u).

    Scores do not depend on x, so the table reads f's ranking in mode (in
    sup mode the one liminf_at and limsup_at read); at x a ball is a prefix
    of the sorted row.
    """
    trunc = radius_truncation(space) if truncation is None else tuple(truncation)

    def region(x: Point, r: Num) -> Region:
        return Region(1, tuple((u,) for u in punctured_ball_points(space, x, r, budget)))

    def member(x: Point, r: Num, u: tuple) -> bool:
        return u[0] != x and space.distance(x, u[0]) < r

    def score(z: tuple, u: tuple) -> Num:
        return f.value(u[0])

    def build(i: int) -> Optional[Optima]:
        got = _rankings(f, space).points(mode)
        if got is None:
            return None
        keys, floats, values = got
        points, dists = _sorted_row(space, i, True)
        zeros = np.zeros(len(trunc), dtype=np.int64)
        hi = np.array([bisect_left(dists, r) for r in trunc], dtype=np.int64)
        return Optima(points, _masked(keys[points][None, :], points), zeros, zeros, hi,
                      [values], len(space), 1, lambda k: (space.points[space.id_order[k]],),
                      floats[points][None, :])

    return WitnessProblem(
        name=f"punctured-ball[{mode}]", space=space,
        params=ParamSpace(trunc), arity=1, mode=mode,
        region=region, member=member, score=score,
        optima=_optimum_tables(space, budget, _valid_params(trunc, lambda r: r > 0), build))


def ball_pairs_problem(space: MetricSpace, f: FunctionOracle,
                       mode: str = "sup",
                       truncation: Optional[Sequence[Num]] = None,
                       budget: Optional[int] = None) -> WitnessProblem:
    """Arity-2 problem: distinct pairs of B(x, r), score |f(u1)-f(u2)|/d.

    The table reads f's ranked pair quotients (in sup mode the ones
    lip_local_sup and lip_modulus read).  At x a ball is a prefix of the sorted row, and each
    point joining it brings the pairs it forms with the points before it, so
    one running maximum serves every radius.
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

    def witness_of(k: int) -> tuple:
        n, ids = len(space), space.id_order
        return (space.points[ids[k // n]], space.points[ids[k % n]])

    def build(i: int) -> Optional[Optima]:
        got = _rankings(f, space).pairs(mode)
        if got is None:
            return None
        pair_keys, pair_floats, values = got
        points, dists = _sorted_row(space, i, False)
        block = np.ix_(points, points)

        def keys_for(mask):
            keys = pair_keys[block]
            if mask is not None:
                inside = mask[points]
                keys = np.where(inside[:, None] & inside[None, :], keys, -1)
            return (np.tril(keys + 1, -1).max(axis=1) - 1)[None, :]

        zeros = np.zeros(len(trunc), dtype=np.int64)
        hi = np.array([bisect_left(dists, r) for r in trunc], dtype=np.int64)
        floats = np.tril(pair_floats[block], -1).any(axis=1)[None, :]
        return Optima(points, keys_for, zeros, zeros, hi, [values], len(space) ** 2, 2,
                      witness_of, floats)

    return WitnessProblem(
        name=f"ball-pairs[{mode}]", space=space,
        params=ParamSpace(trunc), arity=2, mode=mode,
        region=region, member=member, score=score,
        optima=_optimum_tables(space, budget, _valid_params(trunc, lambda r: r > 0), build))


def torus_slope_problem(space: MetricSpace, f: FunctionOracle,
                        mode: str = "sup",
                        truncation: Optional[Sequence[tuple]] = None,
                        t_mode: str = "sample",
                        budget: Optional[int] = None) -> WitnessProblem:
    """Arity-1 problem: shells r < d(x,u) < s, score (t - f(u))^+ / d(x,u).

    At x each level t gives one ranking of the descent quotients (shared
    with torus_sup and slope_at through f); laid out along x's sorted row, a
    shell is a slice, so its optimum is a range maximum.
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

    @functools.cache
    def layout():
        """Levels and radii of the truncation, each parameter as indices into them."""
        levels: dict = {}
        radii: dict = {}
        index = [(levels.setdefault((type(t), t), len(levels)),
                  radii.setdefault((type(r), r), len(radii)),
                  radii.setdefault((type(s), s), len(radii))) for t, r, s in trunc]
        rows, inner, outer = (np.array(col, dtype=np.int64) for col in zip(*index))
        return [t for _, t in levels], [r for _, r in radii], rows, inner, outer

    def build(i: int) -> Optional[Optima]:
        levels, radii, rows, inner, outer = layout()
        rankings = _rankings(f, space)
        ranked = [rankings.descent(i, t, mode) for t in levels]
        if None in ranked:
            return None
        points, dists = _sorted_row(space, i, True)
        lo = np.array([bisect_right(dists, r) for r in radii], dtype=np.int64)[inner]
        hi = np.array([bisect_left(dists, r) for r in radii], dtype=np.int64)[outer]
        keys, floats, values = zip(*ranked)
        return Optima(points, _masked(np.stack(keys)[:, points], points), rows, lo, hi,
                      list(values), len(space), 1,
                      lambda k: (space.points[space.id_order[k]],), np.stack(floats)[:, points])

    return WitnessProblem(
        name=f"torus-slope[{mode}]", space=space,
        params=ParamSpace(trunc), arity=1, mode=mode,
        region=region, member=member, score=score,
        optima=_optimum_tables(space, budget,
                               _valid_params(trunc, lambda p: len(p) == 3 and 0 < p[1] < p[2]),
                               build))


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
