"""Variational quantities over a space and their restricted counterparts.

Every quantity here is a finite formula: discrete liminf/limsup along a
radius grid, the pairwise Lipschitz supremum over a ball, the torus supremum
(t - f(u))^+ / d(x, u), and the descent slope as an inf-sup-sup sweep over
shells.  Each operation takes an optional Y argument; when given, the
regions are intersected with Y, which is all the restriction identities need.

Every formula is a fold over the optima of its family's witness problem,
built on its grid: the limits over the punctured-ball [inf] and [sup]
problems, the pair formulas over the ball-pairs problem, the shell formulas
over the torus-slope problem (the slope's grid of (r, s) shells at each
center's level f(x)).  One reader (_regions) reads x's regions as the closures
and sweeps read them: on a finite space without a budget off the problem's
optimum table of x (problem.optima), every parameter at once, and otherwise
by scanning problem.region and problem.score; it gives an order per region
(its optimum's code, or on the scan its first optimum) and a region's value
built only when asked.  A table is built once per (function, truncation,
center) on f's rankings (memoised on the function oracle per space), with the
other missing tables of its request as one block, and kept on the prepared
truncation.  The limits, the modulus and the slope fold the orders into one
value (_fold; the slope groups its shells by outer radius).  Every ranking is
one int64 pass (_Rankings); lazy or budgeted spaces, centers outside the
space, functions that raise or whose values the pass does not hold (a finite
float, -inf, a part past 2**17) and declined rankings take the region scan.

The module also ships the three registered witness-problem families
(punctured-ball, ball-pairs, torus-slope), each with a per-center optimum
table on finite spaces, and the deterministic parameter truncations derived
from a space's realized distances.
"""

from __future__ import annotations

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
    ScoreRangeError,
    UnknownPoint,
)
from .extreal import (POS_INF, Num, close, fmt, is_exact, is_finite, parse, pos_part,
                      resolve_tolerance, sub)
from .scheme import (Optima, OptimaBlock, ParamSpace, Radii, Region, ShellGrid, Shells,
                     WitnessProblem, _image, rank_rows)
from .spaces import (
    FiniteMetricSpace,
    MetricSpace,
    Point,
    ball_pairs,
    ball_points,  # kept bound here: bench/tracing.py patches this module's region names
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
        """Raise unless some enumerated point has a finite value; f is read at
        every one, so an error of f at any point raises."""
        if not any([self.is_finite_at(p) for p in space.iter_points(budget)]):
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
            try:
                return fn(p.coords)
            except OverflowError:  # an exact value past the floats met a float
                raise ScoreRangeError(f"function {name!r} at {p.id!r} is past the floats") from None

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
    try:
        return num / den
    except OverflowError:  # an exact num past the float range over a float den
        raise ScoreRangeError(f"exact quotient by the float {den!r} is past the floats") from None


class _Rankings:
    """One function's values, computed once, and rankings on one finite space.

    Every ranking is one int64 pass (rank_rows) over the _parts of f's values
    (+inf as 1 / 0, valued as a float), of the distances and of the levels:
    (keys, Fraction flags, value of each code) by point index, the Fraction
    flags None unless an int and a Fraction share a code; keys are Optima
    keys, so a key's code is key // width.  Ranked in a mode, f gives one key
    per point; the pair quotients |f(a) - f(b)| / d(a, b) give an n x n key
    matrix (-1 on the diagonal); the descent quotients (t - f(u))^+ / d(x, u)
    of a center x and level t give one key per point, -1 at x, the missing
    levels of a request's centers ranked together (descents).  None (the
    ranking declines) leaves the scores to the scan: where _parts holds no
    value of f (parts is None: f raises, or takes a finite float, -inf or a
    part past 2**17) _tables asks for no ranking, and a pair or descent
    ranking declines where it holds no distance or level, or where two points
    lie at distance 0.
    """

    PASS_BOUND = 2 ** 15  # the most descent quotients one ranking pass holds

    def __init__(self, f: FunctionOracle, space: FiniteMetricSpace):
        self.space = space
        try:
            self.fv: Optional[list] = [f.value(u) for u in space.points]
        except Exception:  # re-raised by the scan where it belongs
            self.fv = None
        self.rank = np.empty(len(space), dtype=np.int64)  # point index -> id rank
        self.rank[list(space.id_order)] = np.arange(len(space))
        self.memo: dict = {}
        self.parts = None if self.fv is None else _parts(self.fv)

    def _get(self, key: tuple, make: Callable):
        if key not in self.memo:
            self.memo[key] = make()
        return self.memo[key]

    def points(self, mode: str) -> Optional[tuple]:
        """f's values, where _parts holds them."""
        def make():
            if self.parts is None:
                return None
            num, den, kind = self.parts
            with np.errstate(divide="ignore"):  # +inf is 1 / 0
                q = np.stack([num / den, num, den, np.where(den == 0, 2, kind)])[:, None]
            codes, (values,), (shared,) = _rank(q, mode)
            return None if values is None else (
                _arity1_keys(codes[0], self.rank, len(self.space)),
                q[3, 0] == 1 if shared else None, values)

        return self._get(("points", mode), make)

    def pairs(self, mode: str) -> Optional[tuple]:
        """The pair quotients |f(a) - f(b)| / d(a, b), where _parts holds f's
        values and the distances, all positive."""
        def make():
            n, rank = len(self.space), self.rank
            a, b = np.triu_indices(n, 1)
            dists = [self.space.matrix[i][j] for i, j in zip(a.tolist(), b.tolist())]
            d = _parts(dists, floats=True)
            if self.parts is None or d is None or not (np.array(dists, dtype=float) > 0).all():
                return None
            q = _quotient_parts(self.parts[:, a], self.parts[:, b], d, dists, True)[:, None]
            codes, (values,), (shared,) = _rank(q, mode)
            if values is None:
                return None
            first, second = np.minimum(rank[a], rank[b]), np.maximum(rank[a], rank[b])
            width = n * n
            keys, fractions = np.full((n, n), -1, dtype=np.int64), np.zeros((n, n), dtype=bool)
            keys[a, b] = keys[b, a] = codes[0] * width + (width - 1 - (first * n + second))
            fractions[a, b] = fractions[b, a] = q[3, 0] == 1
            return keys, fractions if shared else None, values

        return self._get(("pairs", mode), make)

    def descents(self, centers: Sequence[int], levels: Sequence[Sequence[Num]],
                 mode: str) -> list:
        """The descent ranking of each center at each of its levels, memoised per
        (center, level); the missing rows, where _parts holds the level and the
        distances from the center, all positive, take one pass per block of at
        most PASS_BOUND quotients."""
        wanted = [[("descent", i, mode, type(t), t) for t in ts] for i, ts in zip(centers, levels)]
        todo = [(key, ts, r) for row, ts in zip(wanted, levels) for r, key in enumerate(row)
                if key not in self.memo]
        n, rows, held, parts = len(self.space), {}, [], {}
        for key, ts, r in todo:
            i = key[1]
            if id(ts) not in parts:  # the _parts of a list of levels, which centers may share
                parts[id(ts)] = [_parts([v]) for v in ts]
            if i not in rows:
                order, dists = self.space.sorted_row(i)
                a = bisect_right(dists, 0)  # no shell reaches a point at distance 0
                rows[i] = order[a:], dists[a:], _parts(dists[a:], floats=True)
            points, dists, d = rows[i]
            level = parts[id(ts)][r]
            if len(points) == n - 1 and not any(v is None for v in (self.parts, d, level)):
                held.append((key, *rows[i], level))
            else:
                self.memo[key] = None
        step = max(1, self.PASS_BOUND // max(n - 1, 1))
        for block in (held[a:a + step] for a in range(0, len(held), step)):
            names, points, dists, d, t = zip(*block)  # k (center, level) rows
            k, points = len(block), np.array(points, dtype=np.int64).reshape(len(block), n - 1)
            q = _quotient_parts(np.concatenate(t, 1)[:, :, None], self.parts[:, points],
                                np.stack(d, 1), dists)
            codes, ranked, shared = _rank(q, mode)
            keys, fractions = np.full((k, n), -1, dtype=np.int64), np.zeros((k, n), dtype=bool)
            at = np.arange(k)[:, None], points
            keys[at], fractions[at] = _arity1_keys(codes, self.rank[points], n), q[3] == 1
            for r, (key, one, flags) in enumerate(zip(names, ranked, shared)):
                self.memo[key] = None if one is None else (
                    keys[r], fractions[r] if flags else None, one)
        return [[self.memo[key] for key in row] for row in wanted]


def _rank(q: np.ndarray, mode: str) -> tuple[np.ndarray, list, list]:
    """rank_rows of the rows of q (image, numerator, denominator, kind, as
    _quotient_parts stacks them): the codes, each row's values (None where
    declined), and whether an int and a Fraction share one of its codes."""
    codes, values = rank_rows(q[0], q[1:3], q[3] > 1, lambda r, js: _Quotients(q[:, r, js]), mode)
    return codes, values, _shared(codes, q[3])


class _Quotients:
    """The value of each code of a quotient row, from its (image, numerator,
    denominator, kind) columns of _quotient_parts, built on its first read and
    kept, so that a code reads one object."""

    def __init__(self, parts: np.ndarray):
        self.parts, self.values = parts, [None] * parts.shape[1]

    def __len__(self) -> int:
        return len(self.values)

    def __getitem__(self, c: int) -> Num:
        if self.values[c] is None:
            x, u, v, k = self.parts[:, c].tolist()
            self.values[c] = x if k == 2 else Fraction(int(u), int(v)) if k else int(u)
        return self.values[c]


def _rankings(f: FunctionOracle, space: MetricSpace,
              budget: Optional[int] = None) -> Optional[_Rankings]:
    """f's rankings on space, memoised on f; None on lazy or budgeted spaces."""
    if budget is not None or not isinstance(space, FiniteMetricSpace):
        return None
    got = f._rankings.get(space)
    if got is None:
        got = f._rankings[space] = _Rankings(f, space)
    return got


def _tables(f: FunctionOracle, space: MetricSpace, xs: Sequence[Point], budget: Optional[int],
            builder: Callable[..., list], params: ParamSpace, mode: str) -> list:
    """Each x's table, kept on params, the missing ones built by one builder(f's
    rankings, their indices, params, mode); None leaves x to the scan (lazy or
    budgeted spaces, values of f outside _parts, no parameters, x outside the
    space, a declined ranking)."""
    rankings = _rankings(f, space, budget)
    if rankings is None or rankings.parts is None or not params:
        return [None] * len(xs)
    at = [(rankings, builder, mode, space.index_of(x)) if x in space else None for x in xs]
    new = list(dict.fromkeys(k for k in at if k is not None and k not in params.tables))
    if new:
        params.tables.update(zip(new, builder(rankings, [k[-1] for k in new], params, mode)))
    return [k and params.tables[k] for k in at]


def _regions(problem: WitnessProblem, x: Point,
             allowed: Optional[set]) -> tuple[list, Callable[[int], int], Callable[[int], Num]]:
    """Every region of x within allowed, read as the closures and sweeps read
    the problem: per region an order (larger for better in its mode, None
    where empty), and size(k) and value(k), region k's size in tuples (a pair
    once) and its optimum, built only when asked.  The order is the optimum's
    code off x's table (problem.optima), else the first optimum in
    enumeration order of the scanned region, negated in inf mode."""
    [table] = problem.optima([x])
    if table is not None:
        mask = None if allowed is None else np.fromiter(
            (u in allowed for u in problem.space.points), bool, len(problem.space))
        best, size = (table.best, table.size) if mask is None else table.read(mask)
        keys = best.tolist()
        return ([key // table.width if key >= 0 else None for key in keys],
                lambda k: size[k] // problem.arity,  # pair regions hold both orders
                lambda k: table.value(k, keys[k], mask))
    optimum, sign = (max, 1) if problem.mode == "sup" else (min, -1)
    values, sizes = [], []
    for p in problem.params:
        got = [problem.score((x, p), u) for u in problem.region(x, p)
               if allowed is None or all(c in allowed for c in u)]
        values.append(optimum(got, default=None))
        sizes.append(len(got) // problem.arity)
    return [None if v is None else sign * v for v in values], sizes.__getitem__, values.__getitem__


def _fold(orders: list, groups: Iterable, isolated: str) -> int:
    """The index of the first least order among each group's first greatest,
    groups in order of first nonempty region; IsolatedPoint(isolated) if none."""
    best: dict = {}
    for k, (order, group) in enumerate(zip(orders, groups)):
        if order is not None and (group not in best or order > orders[best[group]]):
            best[group] = k
    if not best:
        raise IsolatedPoint(isolated)
    return min(best.values(), key=orders.__getitem__)


# ---------------------------------------------------------------------------
# Limit values along a grid


def _grid_at(kind: type, grid, x: Point, Y: Optional[Iterable[Point]]) -> tuple:
    """(grid as kind, Radii or ShellGrid, and Y as a set) for a formula at x:
    an empty grid raises first, then a center outside Y, then a bad parameter."""
    params = grid if type(grid) is kind else tuple(grid)
    if not params:
        raise ValueError(f"{'radius' if kind is Radii else 'shell'} grid is empty")
    allowed = _allowed(x, Y)
    return kind.of(params, repeats=True), allowed


def _allowed(x: Point, Y: Optional[Iterable[Point]]) -> Optional[set]:
    """Y as a set, None for the whole space; x must lie in it."""
    allowed = None if Y is None else set(Y)
    if allowed is not None and x not in allowed:
        raise UnknownPoint(f"center {x.id!r} must lie in the restriction set")
    return allowed


def _limit(f: FunctionOracle, space: MetricSpace, x: Point, radii: Radii,
           allowed: Optional[set], budget: Optional[int], mode: str) -> Num:
    """The first least along the radii of x's punctured-ball optima in mode: in
    inf mode the greatest inf (liminf), in sup mode the least sup (limsup)."""
    problem = punctured_ball_problem(space, f, mode, radii, budget)
    orders, _, value = _regions(problem, x, allowed)
    return value(_fold(orders, range(len(orders)),
                       f"every punctured ball at {x.id!r} along the grid is empty"))


def liminf_at(f: FunctionOracle, space: MetricSpace, x: Point, grid,
              Y: Optional[Iterable[Point]] = None,
              budget: Optional[int] = None) -> Num:
    """sup over grid radii of inf of f over the punctured ball (within Y).

    Monotone under grid refinement.  Raises IsolatedPoint when every
    punctured ball along the grid is empty.  Reads x's punctured-ball [inf]
    table where f's inf ranking applies and scans the balls otherwise.
    """
    return _limit(f, space, x, *_grid_at(Radii, grid, x, Y), budget, "inf")


def limsup_at(f: FunctionOracle, space: MetricSpace, x: Point, grid,
              Y: Optional[Iterable[Point]] = None,
              budget: Optional[int] = None) -> Num:
    """inf over grid radii of sup of f over the punctured ball (within Y),
    read off x's punctured-ball [sup] table as liminf_at reads the [inf] one."""
    return _limit(f, space, x, *_grid_at(Radii, grid, x, Y), budget, "sup")


def continuity_check(f: FunctionOracle, space: MetricSpace, x: Point, grid,
                     Y: Optional[Iterable[Point]] = None, tol: Num = 0,
                     budget: Optional[int] = None) -> bool:
    """True when grid liminf and limsup both agree with f(x) up to tol."""
    fx = f.value(x)
    radii, allowed = _grid_at(Radii, grid, x, Y)  # both limits read them
    return continuous(fx, _limit(f, space, x, radii, allowed, budget, "inf"),
                      _limit(f, space, x, radii, allowed, budget, "sup"), tol)


def continuous(fx: Num, liminf: Num, limsup: Num, tol: Num = 0) -> bool:
    """continuity_check's rule on limits already read: both agree with fx up to tol."""
    return close(liminf, fx, tol) and close(limsup, fx, tol)


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
    the pairs otherwise.  Both routes give int 0 where no quotient is
    positive: max(0, sup) keeps the int 0 unless sup exceeds it.
    """
    allowed = _allowed(x, Y)
    problem = ball_pairs_problem(space, f, "sup", Radii.of(radii, repeats=True), budget)
    orders, size, value = _regions(problem, x, allowed)
    return [PairSup(0 if order is None else max(0, value(k)), size(k))
            for k, order in enumerate(orders)]


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
    folded from one read of x's balls.  Raises IsolatedPoint when no ball
    (within Y) holds a pair."""
    radii, allowed = _grid_at(Radii, grid, x, Y)
    orders, _, value = _regions(ball_pairs_problem(space, f, "sup", radii, budget), x, allowed)
    return max(0, value(_fold(orders, range(len(orders)),
                              f"no ball at {x.id!r} along the grid holds a pair")))


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
    allowed = _allowed(x, Y)
    problem = torus_slope_problem(space, f, "sup", Shells.of(params, repeats=True), budget=budget)
    orders, _, value = _regions(problem, x, allowed)
    return [None if order is None else value(k) for k, order in enumerate(orders)]


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
    nothing; if every shell in the grid (None: every shell of x's realized
    radii) is empty the point is isolated, and an empty grid raises.  Each s
    keeps its first maximal shell in grid order, and the first least of
    those is the slope, read off the torus-slope problem on the grid, which
    scores each center at its own level: by the shells' codes where it has
    x's table, by the scanned shell values otherwise.
    """
    if grid is None:
        grid = default_shell_grid(space, x)
        if not grid:
            raise IsolatedPoint(f"no shells realized at {x.id!r}")
    shells, allowed = _grid_at(ShellGrid, grid, x, Y)
    f.value(x)  # an error of f at x comes first
    problem = torus_slope_problem(space, f, "sup", shells, budget=budget)
    orders, _, value = _regions(problem, x, allowed)
    return value(_fold(orders, shells.outer.tolist(), f"every shell at {x.id!r} is empty"))


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

    Scans points in enumeration order, at most budget triples, each counted
    before any of its values is read; None when no violation is found.  It
    enumerates space2 once and reads each f2(x, y) and each k d2(y1, y2) at
    most once.  gap and bound compare at resolve_tolerance's tolerance for
    the two: exactly, unless one is a finite float (1e-12).
    """
    count, pts2, bounds = 0, None, []  # bounds in pair order, filled at the first x
    for x in space1.iter_points(budget):
        pts2 = list(space2.iter_points(budget)) if pts2 is None else pts2
        row: list = []  # f2(x, y) along pts2, read up to the furthest y paired yet
        for n, (i, j) in enumerate(itertools.combinations(range(len(pts2)), 2)):
            count += 1
            if budget is not None and count > budget:
                return None
            row.extend(f2(x, y) for y in pts2[len(row):j + 1])
            if n == len(bounds):
                bounds.append(k * space2.distance(pts2[i], pts2[j]))
            gap, bound = abs(row[i] - row[j]), bounds[n]
            if gap > bound + resolve_tolerance(None, gap, bound):
                return (x, pts2[i], pts2[j])
    return None


def verify_lipschitz_second(f2: Callable[[Point, Point], Num],
                            space1: MetricSpace, space2: MetricSpace, k: Num,
                            budget: Optional[int] = None) -> bool:
    """True when no scanned triple violates the k-Lipschitz bound in y.

    Exact triples compare exactly; a finite float gap or bound may exceed
    the bound by FLOAT_TOL (1e-12), as lipschitz_second_witness allows."""
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


def radius_truncation(space, density: Optional[int] = None) -> Radii:
    """Scalar radii realizing every distinct ball of the space, prepared.

    One value inside each gap between consecutive realized distances, plus
    half the minimum and one past the diameter.  density caps the grid by
    even subsampling (first and last kept).
    """
    grid = midpoint_grid(_realized(space))
    if density is not None and density >= 2 and len(grid) > density:
        step = (len(grid) - 1) / (density - 1)
        idx = sorted({round(i * step) for i in range(density)})
        grid = tuple(grid[i] for i in idx)
    return Radii(grid)


def shell_truncation(space, t_values: Sequence[Num],
                     density: Optional[int] = None) -> Shells:
    """All (t, r, s) with r < s from the radius grid and t from t_values,
    t-major, laid out by construction; a level repeated by value repeats its
    shells, which raises."""
    radii, levels = radius_truncation(space, density), list(t_values)
    inner, outer = np.triu_indices(len(radii), 1)
    shells = [(radii[i], radii[j]) for i, j in zip(inner.tolist(), outer.tolist())]
    k = len(levels)
    return Shells([(t, r, s) for t in levels for r, s in shells], layout=(
        levels, list(radii), np.repeat(np.arange(k), len(shells)), np.tile(inner, k),
        np.tile(outer, k)))


# Optimum tables: each family reads the scores its regions can meet, ranked
# once per function (_Rankings), and every region's optimum off the center's
# sorted distance row.  _tables builds one per (function, truncation, center)
# and keeps it on the truncation, for the closures, sweeps and formulas alike.


def _shared(codes: Sequence, kinds: np.ndarray) -> list:
    """Per row of a ranking's codes and its members' kinds (0 int, 1 Fraction,
    2 another type), whether an int and a Fraction share a code."""
    seen = np.zeros((*np.shape(codes), 3), dtype=bool)
    seen[np.arange(len(codes))[:, None], codes, kinds.astype(np.int64)] = True
    return (seen[..., 0] & seen[..., 1]).any(axis=1).tolist()


def _parts(values: Sequence[Num], floats: bool = False) -> Optional[np.ndarray]:
    """Rows numerator, denominator and kind (0 int, 1 Fraction) of values as
    int64, +inf as 1 / 0, or with floats finite floats instead, as 1 / 1 of
    kind 2.  None for any other value, or one past 2**17."""
    rows = []
    for v in values:
        if type(v) in (int, Fraction) and abs(v.numerator) <= 2 ** 17 >= v.denominator:
            rows.append((v.numerator, v.denominator, type(v) is Fraction))
        elif type(v) is float and (abs(v) < POS_INF if floats else v == POS_INF):
            rows.append((1, 1, 2) if floats else (1, 0, 0))
        else:
            return None
    return np.array(rows, dtype=np.int64).reshape(-1, 3).T


def _quotient_parts(a: np.ndarray, b: np.ndarray, d: np.ndarray, dists: Sequence,
                    absolute: bool = False) -> np.ndarray:
    """Images, reduced numerators and denominators, and kinds (0 int, 1
    Fraction, 2 float) of the quotients (a - b)^+ / d, or |a - b| / d where
    absolute, as _exact_div(pos_part (or abs) of sub(a, b), d) gives them,
    stacked as floats, from the _parts a, b, d of a block's rows (dists, read
    at a float d).  A float's value is its image: +inf (an a or b of +inf, as
    1 / 0), or a quotient by a float distance, keyed 0 / 0 as no exact one
    is.  Inputs within 2**17 keep every part within 2**53: the images round
    correctly."""
    (an, ad, af), (bn, bd, bf), (dn, dd, dk) = a, b, d
    num, den = an * bd - bn * ad, ad * bd
    num = np.abs(num) if absolute else num
    pos = num > 0  # pos_part gives the int 0 elsewhere
    qn, qd = np.where(pos, num * dd, 0), np.where(pos, den * dn, 1)
    g = np.gcd(qn, qd)
    by_float = dk == 2
    qn, qd = np.where(by_float, 0, qn // g), np.where(by_float, 0, qd // g)
    with np.errstate(divide="ignore", invalid="ignore"):  # +inf is 1 / 0
        images = qn / qd
        if by_float.any():
            by_d = np.where(pos, num / den, 0) / np.array(dists, dtype=float)
            images = np.where(by_float, by_d, images)
    kinds = ((pos | absolute) & (af | bf)) | dk | (qd != 1)  # abs keeps a zero's type
    return np.stack([images, qn, qd, np.where(qd == 0, 2, kinds)])


def _arity1_keys(codes: Sequence[int], ranks: np.ndarray, width: int) -> np.ndarray:
    """Keys of single points: score code first, then the least id rank."""
    return np.array(codes, dtype=np.int64) * width + (width - 1 - ranks)


def _rows(rankings: _Rankings, centers: np.ndarray, params: ParamSpace,
          punctured: bool) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The centers' sorted rows stacked (each without its center when punctured),
    and bisect_left and bisect_right of each of params.radii into each row's
    distances: numpy counts the distances whose float images lie below, or at
    or below, each radius's, every row at once, and bisection compares exactly
    only among distances whose images tie with a radius's."""
    space, k = rankings.space, len(centers)
    rows = [space.sorted_row(i) for i in centers.tolist()]
    points = np.array([order for order, _ in rows], dtype=np.int64)
    dists = np.array([[_image(d) for d in row] for _, row in rows])[:, :, None]
    ends = np.array([(dists < params.images).sum(axis=1), (dists <= params.images).sum(axis=1)])
    for c, j in zip(*(a.tolist() for a in np.nonzero(ends[0] != ends[1]))):
        a = ends[0][c, j]
        tied = [space.matrix[centers[c]][u] for u in points[c, a:ends[1][c, j]].tolist()]
        ends[0][c, j], ends[1][c, j] = (a + cut(tied, params.radii[j])
                                        for cut in (bisect_left, bisect_right))
    if punctured:  # each center leaves its row, and every end past its position
        own = points == centers[:, None]
        return points[~own].reshape(k, -1), *(ends - (np.argmax(own, axis=1)[:, None] < ends))
    return points, *ends


# The table builders, one per family, behind each factory's optima: (f's
# rankings on a finite space, center indices, the prepared parameters, the
# mode) to each center's Optima, or None where a ranking is declined.
# A request's centers share one OptimaBlock per run of at most
# PASS_BOUND // (entries per center) of them, so every stacked array (the
# keys, a pair block's n x n gathers, the n x radii placements and each
# level of a shell block's sparse table) stays within PASS_BOUND entries.


def _blocks(centers: list, per_center: int, build: Callable[[list], OptimaBlock]) -> list:
    step = max(1, _Rankings.PASS_BOUND // per_center)
    blocks = (build(centers[a:a + step]) for a in range(0, len(centers), step))
    return [Optima(block, c) for block in blocks for c in range(len(block.points))]


def _balls(rankings: _Rankings, centers: list, radii: Radii, got: Optional[tuple],
           arity: int) -> list:
    """Balls B(x_i, r): prefixes of the sorted rows, punctured for single points.
    A point joining a ball brings the pairs it forms with the points before it,
    so one running maximum serves every radius of a pair table too."""
    if got is None:
        return [None] * len(centers)

    def build(cs: list) -> OptimaBlock:
        points, ends, _ = _rows(rankings, np.array(cs), radii, arity == 1)
        keys = got[0][points][:, None] if arity == 1 else got[0]
        return OptimaBlock(rankings.space, points, np.zeros(len(radii), dtype=np.int64),
                           np.zeros_like(ends), ends, [[got]] * len(cs), keys, arity)

    n = len(rankings.space)
    return _blocks(centers, n * max(n ** (arity - 1), len(radii)), build)


def _points_table(rankings: _Rankings, centers: list, radii: Radii, mode: str) -> list:
    """Punctured balls B(x_i, r) \\ {x_i}, scored by f's ranking in mode."""
    return _balls(rankings, centers, radii, rankings.points(mode), 1)


def _pairs_table(rankings: _Rankings, centers: list, radii: Radii, mode: str) -> list:
    """Pairs of balls B(x_i, r), scored by f's ranked pair quotients in mode."""
    return _balls(rankings, centers, radii, rankings.pairs(mode), 2)


def _torus_table(rankings: _Rankings, centers: list, shells: ShellGrid, mode: str) -> list:
    """Shells r < d(x_i, u) < s, shell k at shells.levels[shells.rows[k]], or on a
    grid (no levels) at f(x_i): one ranking of the descent quotients per level
    (descents), laid out along the punctured sorted rows, where a shell is a slice."""
    ranked = rankings.descents(
        centers, [shells.levels or [rankings.fv[c]] for c in centers], mode)
    ok = [a for a, one in enumerate(ranked) if None not in one]

    def build(at: list) -> OptimaBlock:
        points, ends, starts = _rows(rankings, np.array([centers[a] for a in at]), shells, True)
        by_point = np.array([[one[0] for one in ranked[a]] for a in at])
        keys = by_point[np.arange(len(at))[:, None, None], np.arange(by_point.shape[1])[:, None],
                        points[:, None]]
        return OptimaBlock(rankings.space, points, shells.rows, starts[:, shells.inner],
                           ends[:, shells.outer], [ranked[a] for a in at], keys)

    per_center = len(rankings.space) * max(len(shells.levels), 1, len(shells.radii))
    got = dict(zip(ok, _blocks(ok, per_center, build)))
    return [got.get(a) for a in range(len(centers))]


def punctured_ball_problem(space: MetricSpace, f: FunctionOracle,
                           mode: str = "sup",
                           truncation: Optional[Sequence[Num]] = None,
                           budget: Optional[int] = None) -> WitnessProblem:
    """Arity-1 problem: region B(x, r) \\ {x}, score f(u).

    Scores do not depend on x, so the table reads f's ranking in mode (the
    [inf] table is the one liminf_at reads, the [sup] table limsup_at's).
    """
    trunc = Radii.of(radius_truncation(space) if truncation is None else truncation)

    def region(x: Point, r: Num) -> Region:
        return Region(1, tuple((u,) for u in punctured_ball_points(space, x, r, budget)))

    def member(x: Point, r: Num, u: tuple) -> bool:
        return u[0] != x and space.distance(x, u[0]) < r

    def score(z: tuple, u: tuple) -> Num:
        return f.value(u[0])

    return WitnessProblem(
        name=f"punctured-ball[{mode}]", space=space,
        params=trunc, arity=1, mode=mode,
        region=region, member=member, score=score,
        optima=lambda xs: _tables(f, space, xs, budget, _points_table, trunc, mode))


def ball_pairs_problem(space: MetricSpace, f: FunctionOracle,
                       mode: str = "sup",
                       truncation: Optional[Sequence[Num]] = None,
                       budget: Optional[int] = None) -> WitnessProblem:
    """Arity-2 problem: distinct pairs of B(x, r), score |f(u1)-f(u2)|/d.

    The table reads f's ranked pair quotients (in sup mode the ones
    lip_local_sups reads).
    """
    trunc = Radii.of(radius_truncation(space) if truncation is None else truncation)

    def region(x: Point, r: Num) -> Region:
        return ball_pairs(space, x, r, budget)

    def member(x: Point, r: Num, u: tuple) -> bool:
        a, b = u
        return a != b and space.distance(x, a) < r and space.distance(x, b) < r

    def score(z: tuple, u: tuple) -> Num:
        return _pair_quotient(f, space, *u)

    return WitnessProblem(
        name=f"ball-pairs[{mode}]", space=space,
        params=trunc, arity=2, mode=mode,
        region=region, member=member, score=score,
        optima=lambda xs: _tables(f, space, xs, budget, _pairs_table, trunc, mode))


def torus_slope_problem(space: MetricSpace, f: FunctionOracle,
                        mode: str = "sup",
                        truncation: Optional[Sequence[tuple]] = None,
                        t_mode: str = "sample",
                        budget: Optional[int] = None) -> WitnessProblem:
    """Arity-1 problem: shells r < d(x,u) < s, score (t - f(u))^+ / d(x,u).

    At x each level t gives one ranking of the descent quotients (shared
    with torus_sups and slope_at through f).  A prepared ShellGrid, a
    slope's grid of (r, s) shells, scores each center x at its own level f(x).
    """
    if truncation is None:
        truncation = shell_truncation(space, level_grid(f, space, t_mode))
    trunc = truncation if type(truncation) is ShellGrid else Shells.of(truncation)

    def region(x: Point, p: tuple) -> Region:
        r, s = p[-2:]
        return Region(1, tuple((u,) for u in torus_points(space, x, r, s, budget)))

    def member(x: Point, p: tuple, u: tuple) -> bool:
        r, s = p[-2:]
        return r < space.distance(x, u[0]) < s

    def score(z: tuple, u: tuple) -> Num:
        x, p = z
        return _descent_quotient(p[0] if len(p) == 3 else f.value(x), f, space, x, u[0])

    return WitnessProblem(
        name=f"torus-slope[{mode}]", space=space,
        params=trunc, arity=1, mode=mode,
        region=region, member=member, score=score,
        optima=lambda xs: _tables(f, space, xs, budget, _torus_table, trunc, mode))


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
    if "t_mode" in obj and family != "torus-slope":
        raise DescriptorError(f"t_mode applies to torus-slope only, not to {family!r}")
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
