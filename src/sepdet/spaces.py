"""Points, metric spaces, and the region primitives built on them.

Two space kinds are supported.  Finite spaces store an explicit distance
matrix (built from coordinates for the Euclidean family or supplied directly
for the matrix family) and validate the metric axioms on request.  Lazy
spaces expose a countable enumeration plus a distance oracle; every region
operation on a lazy space takes an explicit enumeration budget.

Regions are always materialized: a finite tuple of l-tuples of points in a
deterministic order, with O(1) membership.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from numbers import Real
from typing import Callable, Iterator, Optional, Sequence

import numpy as np

from .errors import (
    BadShell,
    DescriptorError,
    NonPositiveRadius,
    NoCoordinates,
    UnknownPoint,
)
from .extreal import FLOAT_TOL, Num, fmt, parse


@dataclass(frozen=True, eq=False)
class Point:
    """A point: an id unique within its space, optionally with coordinates."""

    id: str
    coords: Optional[tuple] = None

    def __post_init__(self):
        # precomputed: Fraction coordinates make the default hash a hot spot
        object.__setattr__(self, "_hash", hash((self.id, self.coords)))

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other) -> bool:
        if not isinstance(other, Point):
            return NotImplemented
        return self.id == other.id and self.coords == other.coords


def _euclidean(a: Point, b: Point) -> Num:
    if a.coords is None or b.coords is None:
        raise NoCoordinates(f"point {a.id if a.coords is None else b.id} has no coordinates")
    if len(a.coords) != len(b.coords):
        raise DescriptorError(f"points {a.id} and {b.id} have different dimensions")
    if len(a.coords) == 1:
        return abs(a.coords[0] - b.coords[0])  # exact when coordinates are rational
    sq = sum((x - y) ** 2 for x, y in zip(a.coords, b.coords))
    return math.sqrt(sq)


class MetricSpace:
    """Common interface of finite and lazy spaces."""

    kind: str = ""

    def distance(self, a: Point, b: Point) -> Num:
        raise NotImplementedError

    def iter_points(self, budget: Optional[int] = None) -> Iterator[Point]:
        raise NotImplementedError

    def enumerate_points(self, budget: Optional[int] = None) -> tuple[Point, ...]:
        return tuple(self.iter_points(budget))


# Exact entries scaled to integers below this stay int64 through one sum.
_INT64_SAFE = 1 << 61


def _metric_array(matrix: Sequence[Sequence[Num]], types: frozenset, tol: Num) -> tuple:
    """The n x n matrix as one array for the axiom checks, plus the tolerance.

    types is the set of entry types.  Exact matrices are scaled by the lcm of
    their denominators to integers and get no tolerance (None): int64 when
    every scaled entry stays below 2**61, Python ints otherwise.  A matrix
    holding floats keeps its original values as objects under the caller's
    tol, so each operation is the Python one.
    """
    n = len(matrix)
    if not _all_exact(types):
        return np.array(matrix, dtype=object).reshape(n, n), tol
    rows = matrix
    if types != {int}:
        scale = math.lcm(*{v.denominator for row in matrix for v in row})
        rows = [[v.numerator * (scale // v.denominator) for v in row] for row in matrix]
    try:
        a = np.array(rows, dtype=np.int64).reshape(n, n)
        if n and (a.max() >= _INT64_SAFE or a.min() <= -_INT64_SAFE):
            raise OverflowError
    except OverflowError:
        a = np.array(rows, dtype=object).reshape(n, n)
    return a, None


def _all_exact(types: frozenset) -> bool:
    """is_exact over values, decided once per type: int or Fraction, not bool."""
    return all(issubclass(t, (int, Fraction)) and not issubclass(t, bool) for t in types)


class FiniteMetricSpace(MetricSpace):
    kind = "finite"

    def __init__(self, points: Sequence[Point], matrix: Sequence[Sequence[Num]],
                 metric_name: str = "matrix"):
        self.points: tuple[Point, ...] = tuple(points)
        self.matrix: tuple[tuple[Num, ...], ...] = tuple(tuple(row) for row in matrix)
        self.metric_name = metric_name
        self._rows: dict[int, tuple] = {}
        self._index: dict[str, int] = {}
        for i, p in enumerate(self.points):
            if p.id in self._index:
                raise DescriptorError(f"duplicate point id {p.id!r}")
            self._index[p.id] = i
        if len(self.matrix) != len(self.points):
            raise DescriptorError("matrix size does not match point count")

    @classmethod
    def from_coords(cls, points: Sequence[Point]) -> "FiniteMetricSpace":
        """Euclidean space over coordinate points; 1-D distances stay exact."""
        pts = tuple(points)
        matrix = [[_euclidean(a, b) if i != j else 0 for j, b in enumerate(pts)]
                  for i, a in enumerate(pts)]
        return cls(pts, matrix, metric_name="euclidean")

    @classmethod
    def from_matrix(cls, points: Sequence[Point], matrix: Sequence[Sequence[Num]],
                    tol: float = FLOAT_TOL) -> "FiniteMetricSpace":
        """Space over an explicit distance matrix, validated by validate(tol).

        tol only loosens the triangle inequality of matrices holding floats;
        an all-int/Fraction matrix is checked with tolerance 0.
        """
        space = cls(points, matrix, metric_name="matrix")
        space.validate(tol)
        return space

    def __len__(self) -> int:
        return len(self.points)

    def __contains__(self, p: Point) -> bool:
        got = self._index.get(p.id)
        return got is not None and self.points[got] == p

    def index_of(self, p: Point) -> int:
        i = self._index.get(p.id)
        if i is None or self.points[i] != p:
            raise UnknownPoint(f"point {p.id!r} is not in this space")
        return i

    def point(self, pid: str) -> Point:
        i = self._index.get(pid)
        if i is None:
            raise UnknownPoint(f"point {pid!r} is not in this space")
        return self.points[i]

    def distance(self, a: Point, b: Point) -> Num:
        return self.matrix[self.index_of(a)][self.index_of(b)]

    def iter_points(self, budget: Optional[int] = None) -> Iterator[Point]:
        pts = self.points if budget is None else self.points[:budget]
        return iter(pts)

    def sorted_row(self, i: int) -> tuple[tuple[int, ...], tuple[Num, ...]]:
        """Point indices in (distance from point i, index) order, and those distances.

        Sorted once per center; a ball is then a prefix and a shell a slice.
        """
        got = self._rows.get(i)
        if got is None:
            row = self.matrix[i]
            order = tuple(sorted(range(len(row)), key=row.__getitem__))
            got = self._rows[i] = (order, tuple(row[j] for j in order))
        return got

    def _members(self, picked: Sequence[int], budget: Optional[int]) -> tuple[Point, ...]:
        """Points at the given indices in enumeration order, within the budget."""
        idx = sorted(picked)
        if budget is not None:
            idx = [j for j in idx if j < budget]
        return tuple(self.points[j] for j in idx)

    @cached_property
    def id_order(self) -> tuple[int, ...]:
        """Point indices in id order: entry k is the index of the k-th smallest id."""
        return tuple(sorted(range(len(self.points)), key=lambda j: self.points[j].id))

    @cached_property
    def _types(self) -> frozenset:
        return frozenset(type(v) for row in self.matrix for v in row)

    @cached_property
    def exact(self) -> bool:
        """True when every distance is an int or Fraction (tolerance 0 applies)."""
        return _all_exact(self._types)

    def validate(self, tol: float = FLOAT_TOL) -> None:
        """Check the metric axioms; raise DescriptorError naming the first violation.

        The checks run in this order: row length and diagonal (row by row),
        finiteness, then symmetry and positivity (pair by pair), then the
        triangle inequality (in i, j, k order).  Exact matrices (every entry an
        int or Fraction) are checked with tolerance 0 whatever tol is; tol only
        loosens the triangle inequality of matrices that hold floats.
        """
        n = len(self.points)
        m = self.matrix
        for i, row in enumerate(m):
            if len(row) != n:
                raise DescriptorError(f"matrix row {i} has length {len(row)}, expected {n}")
            if row[i] != 0:
                raise DescriptorError(f"matrix[{i}][{i}] = {row[i]!r}, diagonal must be 0")
        if not self.exact:
            for i, row in enumerate(m):
                for j, v in enumerate(row):
                    if isinstance(v, float) and not math.isfinite(v):
                        raise DescriptorError(
                            f"matrix[{i}][{j}] = {fmt(v)}: distances must be finite")
        a, tol = _metric_array(m, self._types, tol)
        pair_bad = np.triu((a != a.T) | (a <= 0), 1)
        if pair_bad.any():
            i, j = divmod(int(pair_bad.argmax()), n)
            if m[i][j] != m[j][i]:
                raise DescriptorError(
                    f"matrix[{i}][{j}] != matrix[{j}][{i}] "
                    f"({fmt(m[i][j])} vs {fmt(m[j][i])}) for pair "
                    f"({self.points[i].id!r}, {self.points[j].id!r})")
            raise DescriptorError(
                f"matrix[{i}][{j}] = {fmt(m[i][j])}: distinct points "
                f"{self.points[i].id!r}, {self.points[j].id!r} need positive distance")
        # One row i at a time keeps the extra memory O(n^2):
        # bad[j, k] = a[i, j] > (a[i, k] + a[k, j]) + tol.
        at = a.T
        for i in range(n):
            bound = a[i] + at
            if tol is not None:
                bound += tol
            bad = a[i][:, None] > bound
            if bad.any():
                j, k = divmod(int(bad.argmax()), n)
                raise DescriptorError(
                    f"triangle inequality fails at points "
                    f"({self.points[i].id!r}, {self.points[j].id!r}, "
                    f"{self.points[k].id!r})")

    def realized_distances(self, center: Optional[Point] = None) -> tuple[Num, ...]:
        """Sorted distinct positive distances, globally or from one center."""
        vals: set = set()
        if center is None:
            n = len(self.points)
            for i in range(n):
                row = self.matrix[i]
                for j in range(i + 1, n):
                    vals.add(row[j])
        else:
            row = self.matrix[self.index_of(center)]
            vals.update(v for v in row if v > 0)
        vals.discard(0)
        return tuple(sorted(vals))

    def diameter(self) -> Num:
        dists = self.realized_distances()
        return dists[-1] if dists else 0


class LazyMetricSpace(MetricSpace):
    """Countable space given by an enumerator and a distance oracle.

    Membership is semi-decidable; region operations must be given a budget
    bounding how far the enumeration is scanned.
    """

    kind = "lazy"

    def __init__(self, point_at: Callable[[int], Point], dist: Callable[[Point, Point], Num],
                 name: str = "lazy"):
        self.point_at = point_at
        self.dist = dist
        self.name = name

    def distance(self, a: Point, b: Point) -> Num:
        return self.dist(a, b)

    def iter_points(self, budget: Optional[int] = None) -> Iterator[Point]:
        if budget is None:
            raise ValueError("lazy space enumeration needs a budget")
        return (self.point_at(i) for i in range(budget))


@dataclass(frozen=True)
class Region:
    """A materialized region: finite tuple of l-tuples in deterministic order."""

    arity: int
    members: tuple[tuple[Point, ...], ...]

    def __post_init__(self):
        for u in self.members:
            if len(u) != self.arity:
                raise ValueError(f"member arity {len(u)} != region arity {self.arity}")

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self) -> Iterator[tuple[Point, ...]]:
        return iter(self.members)

    @property
    def is_empty(self) -> bool:
        return not self.members


def _check_radius(r: Num) -> None:
    if not (isinstance(r, Real) and r > 0):
        raise NonPositiveRadius(f"radius must be positive, got {fmt(r)}")


def _check_shell(r: Num, s: Num) -> None:
    if not (isinstance(r, Real) and isinstance(s, Real) and 0 < r < s):
        raise BadShell(f"shell needs 0 < r < s, got r={fmt(r)}, s={fmt(s)}")


def ball_points(space: MetricSpace, x: Point, r: Num,
                budget: Optional[int] = None) -> tuple[Point, ...]:
    """Open ball B(x, r), center included, in enumeration order."""
    _check_radius(r)
    if isinstance(space, FiniteMetricSpace):
        order, dists = space.sorted_row(space.index_of(x))
        return space._members(order[:bisect_left(dists, r)], budget)
    return tuple(u for u in space.iter_points(budget) if space.distance(x, u) < r)


def punctured_ball_points(space: MetricSpace, x: Point, r: Num,
                          budget: Optional[int] = None) -> tuple[Point, ...]:
    """B(x, r) with the center removed; may be empty for small r."""
    _check_radius(r)
    if isinstance(space, FiniteMetricSpace):
        i = space.index_of(x)
        order, dists = space.sorted_row(i)
        return space._members([j for j in order[:bisect_left(dists, r)] if j != i], budget)
    return tuple(u for u in space.iter_points(budget)
                 if u != x and space.distance(x, u) < r)


def torus_points(space: MetricSpace, x: Point, r: Num, s: Num,
                 budget: Optional[int] = None) -> tuple[Point, ...]:
    """Open shell {u : r < d(x, u) < s}; never contains the center."""
    _check_shell(r, s)
    if isinstance(space, FiniteMetricSpace):
        order, dists = space.sorted_row(space.index_of(x))
        return space._members(order[bisect_right(dists, r):bisect_left(dists, s)], budget)
    out = []
    for u in space.iter_points(budget):
        d = space.distance(x, u)
        if r < d < s:
            out.append(u)
    return tuple(out)


def ball_pairs(space: MetricSpace, x: Point, r: Num,
               budget: Optional[int] = None) -> Region:
    """Ordered pairs of distinct points of B(x, r); |members| = k(k-1)."""
    ball = ball_points(space, x, r, budget)
    members = tuple((a, b) for a in ball for b in ball if a != b)
    return Region(arity=2, members=members)


# ---------------------------------------------------------------------------
# JSON descriptors


def _parse_point(obj, i: int) -> Point:
    if isinstance(obj, str):
        return Point(id=obj)
    if isinstance(obj, dict):
        if "id" not in obj:
            raise DescriptorError(f"points[{i}] is missing 'id'")
        if not isinstance(obj["id"], str):
            raise DescriptorError(
                f"points[{i}].id must be a string, got {type(obj['id']).__name__}")
        coords = obj.get("coords")
        if coords is not None:
            if not isinstance(coords, list) or not coords:
                raise DescriptorError(f"points[{i}].coords must be a nonempty list")
            try:
                coords = tuple(parse(c) for c in coords)
            except ValueError as exc:
                raise DescriptorError(f"points[{i}].coords: {exc}") from exc
        return Point(id=obj["id"], coords=coords)
    raise DescriptorError(f"points[{i}] must be an id or an object")


def space_from_descriptor(obj: dict, tol: float = FLOAT_TOL) -> FiniteMetricSpace:
    """Build and validate a finite space from its JSON form.

    Raises DescriptorError naming the offending field on any violation.  tol
    applies only to spaces with float distances (2-D Euclidean, float matrix
    entries); exact spaces are validated with tolerance 0.
    """
    if not isinstance(obj, dict):
        raise DescriptorError("space descriptor must be an object")
    if obj.get("kind") != "finite":
        raise DescriptorError(f"kind must be 'finite', got {obj.get('kind')!r}")
    metric = obj.get("metric")
    raw_points = obj.get("points")
    if not isinstance(raw_points, list) or not raw_points:
        raise DescriptorError("points must be a nonempty list")
    points = [_parse_point(p, i) for i, p in enumerate(raw_points)]
    if metric == "euclidean":
        dims = set()
        for i, p in enumerate(points):
            if p.coords is None:
                raise DescriptorError(f"points[{i}] needs coords under the euclidean metric")
            dims.add(len(p.coords))
        if len(dims) > 1:
            raise DescriptorError("all points must share one dimension")
        space = FiniteMetricSpace.from_coords(points)
        space.validate(tol)  # catches duplicate coordinates via d = 0
        return space
    if metric == "matrix":
        raw = obj.get("matrix")
        if not isinstance(raw, list) or len(raw) != len(points):
            raise DescriptorError("matrix must be a square list matching points")
        matrix = []
        for i, row in enumerate(raw):
            if not isinstance(row, list) or len(row) != len(points):
                raise DescriptorError(f"matrix[{i}] must have length {len(points)}")
            try:  # plain JSON numbers are already distances; parse the rest
                matrix.append([v if type(v) in (int, float) else parse(v) for v in row])
            except ValueError as exc:
                raise DescriptorError(f"matrix[{i}]: {exc}") from exc
        return FiniteMetricSpace.from_matrix(points, matrix, tol)
    raise DescriptorError(f"metric must be 'euclidean' or 'matrix', got {metric!r}")


def space_to_descriptor(space: FiniteMetricSpace) -> dict:
    if space.metric_name == "euclidean":
        return {
            "kind": "finite",
            "metric": "euclidean",
            "points": [{"id": p.id, "coords": [fmt(c) for c in p.coords]}
                       for p in space.points],
        }
    return {
        "kind": "finite",
        "metric": "matrix",
        "points": [{"id": p.id, "coords": [fmt(c) for c in p.coords]}
                   if p.coords is not None else p.id
                   for p in space.points],
        "matrix": [[fmt(v) for v in row] for row in space.matrix],
    }
