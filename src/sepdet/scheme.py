"""Witness selection, closure to a fixed point, and restriction checks.

The engine works over a witness problem: a space, a parameter truncation, a
region map G(x, p) into l-tuples, and a score to maximize (sup mode) or
minimize (inf mode).  `closure_iterate` grows a seed set level by level,
inserting the components of optimal witness tuples for every (point,
parameter) pair, until nothing new appears.  `check_sweep` then compares at
every (center, parameter) the optimum over the full region with the optimum
over tuples of the generated set, which never beats it and on a fixed point
equals it; `sweep_tally` counts the verdicts.  `fold_sweep` folds each
center's optima into one (`fold_codes`: per group the first greatest, then
the first least), over the whole space and over the set, for the formulas
that are such folds.

Closures and check sweeps read a problem's per-center optimum table
(`Optima`, a row of the `OptimaBlock` built for a whole request) where the
family supplies one: a closure round reads an exact argmax once per distinct
key, and a slack selection (eps > 0 or cap > 1) as the least-id tuples whose
codes reach the cut's; a sweep reads each block once within Y.  Lazy spaces,
budgeted regions, declined rankings and single selections or checks scan the
regions.
Every full-vs-restricted verdict follows `agree`: a shared table code is one
value object, which passes unread, and anything else is compared by value.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from numbers import Integral, Real
from typing import Callable, Iterable, Iterator, Optional, Sequence

import numpy as np

from .errors import (
    BadShell,
    EmptyRegion,
    InvariantViolation,
    NoCoordinates,
    ScoreRangeError,
    SpaceMismatch,
    UnknownPoint,
)
from .extreal import NEG_INF, POS_INF, Num, close, fmt, resolve_tolerance
from .spaces import FiniteMetricSpace, MetricSpace, Point, Region, _check_radius, _check_shell


class ParamSpace(tuple):
    """A separable parameter space, given by its finite truncation.

    The truncation is the finite, duplicate-free sample of a dense subset
    actually swept by closures and checks, opaque to the engine; a
    ParamSpace is that sequence.  The shipped families prepare theirs as one
    of the kinds below, which checks each parameter once, lays the
    truncation out for the optimum tables and finds repeats from that layout
    (_keys).  A formula's grid may repeat a parameter (repeats=True).  The
    optimum tables over it are kept on it (tables): each built once per
    function, family, mode and center, and freed with it.
    """

    def __new__(cls, truncation: Iterable = (), *args, **kwargs):
        return super().__new__(cls, truncation)

    def __init__(self, truncation: Iterable = (), repeats: bool = False):
        self.tables = {}
        seen: dict = {}  # each key hashed once
        twin = None if repeats else next(
            (i for i, k in enumerate(self._keys()) if seen.setdefault(k, i) != i), None)
        if twin is not None:
            raise ValueError(f"duplicate parameter {self[twin]!r} in truncation")

    truncation = property(lambda self: self)

    @cached_property
    def images(self) -> np.ndarray:
        """The float images of a kind's radii, for placing them in sorted rows."""
        return np.array([_image(r) for r in self.radii])

    def _keys(self) -> Iterable:  # one per parameter, equal where the parameters are
        return self

    @classmethod
    def of(cls, params: Iterable, repeats: bool = False) -> "ParamSpace":
        """params as cls: as given when so prepared, else checked and laid out.
        A formula's grid may repeat a parameter (repeats=True); a problem's
        truncation may not, unless a formula prepared it as its grid."""
        return params if type(params) is cls else cls(params, repeats)


class Radii(ParamSpace):
    """Scalar radii, each checked positive once."""

    def __init__(self, radii: Iterable[Num] = (), repeats: bool = False):
        for r in self:
            _check_radius(r)
        super().__init__(radii, repeats)

    radii = property(lambda self: self)


class ShellGrid(ParamSpace):
    """(r, s) shells r < d(x, u) < s, a slope's grid, laid out by value: the
    levels t by type and value (the quotients' types follow t's; a grid has
    none, and its shells take row 0, the slope's f(x)), the distinct radii,
    and each shell's row and inner and outer radius index, from which
    repeats are found.  A truncation builder that knows the layout gives it."""

    width, kind = 2, "an (r, s) pair"

    def __init__(self, params: Iterable = (), repeats: bool = False,
                 layout: Optional[tuple] = None):
        if layout is None:
            for p in self:
                if not isinstance(p, (tuple, list)) or len(p) != self.width or not all(
                        isinstance(v, Real) for v in p):
                    raise BadShell(f"shell parameter must be {self.kind} of numbers, got {p!r}")
                _check_shell(*p[-2:])
            levels: dict = {}
            radii: dict = {}
            rows = [levels.setdefault((type(p[0]), p[0]), len(levels))
                    for p in self if len(p) == 3]
            index = [radii.setdefault(v, len(radii)) for p in self for v in p[-2:]]
            layout = ([t for _, t in levels], list(radii), rows or [0] * len(self),
                      index[0::2], index[1::2])
        self.levels, self.radii = layout[:2]
        self.rows, self.inner, self.outer = (np.asarray(a, dtype=np.int64) for a in layout[2:])
        super().__init__(params, repeats)

    def _keys(self) -> Iterable:
        same: dict = {}  # each level's first level equal to it by value
        first = np.array([same.setdefault(t, k) for k, t in enumerate(self.levels)] or [0])
        return zip(first[self.rows].tolist(), self.inner.tolist(), self.outer.tolist())


class Shells(ShellGrid):
    """(t, r, s) shells, each at its level t, laid out as a ShellGrid's."""

    width, kind = 3, "a (t, r, s) triple"

    @cached_property
    def grid(self) -> ShellGrid:
        """The distinct (r, s) shells, each where it first appears: the slope's grid."""
        first = np.sort(np.unique(self.inner * len(self.radii) + self.outer,
                                  return_index=True)[1])
        return ShellGrid((tuple(self[k][1:]) for k in first.tolist()), layout=(
            [], self.radii, np.zeros(first.size), self.inner[first], self.outer[first]))


@dataclass(frozen=True)
class WitnessProblem:
    """A region map plus a score over one space, swept along a truncation.

    region(x, p) materializes G(x, p); member(x, p, u) decides membership of
    a candidate tuple independently, which is what the brute-force oracle
    scans with.  In sup mode scores live in R ∪ {+inf}, in inf mode in
    R ∪ {-inf}; a score outside the range is an error.  optima(xs), if given,
    returns per center x of xs the exact optima of every G(x, p), or None for
    x left to the region scan; a closure round asks with its frontier, a sweep
    with its Y (the shipped families keep the tables on params for formulas).
    """

    name: str
    space: MetricSpace
    params: ParamSpace
    arity: int
    mode: str
    region: Callable[[Point, object], Region]
    member: Callable[[Point, object, tuple], bool]
    score: Callable[[tuple, tuple], Num]
    optima: Optional[Callable[[Sequence[Point]], Sequence[Optional["Optima"]]]] = None

    def __post_init__(self):
        if self.mode not in ("sup", "inf"):
            raise ValueError(f"mode must be 'sup' or 'inf', got {self.mode!r}")
        if self.arity < 1:
            raise ValueError("arity must be at least 1")


def _image(v: Num) -> float:
    try:
        return float(v)
    except OverflowError:  # past the float range: the infinity of its sign, still monotone
        return POS_INF if v > 0 else NEG_INF


def rank_rows(images: np.ndarray, keys: Sequence[np.ndarray], kinds: np.ndarray,
              exact: Callable[[int, list], list], mode: str) -> tuple[np.ndarray, list]:
    """Integer codes of each row of a score matrix, larger for better in mode:
    the codes, and per row the value of each code, or None for a declined row.

    images are float images of the scores, monotone in them as correct
    rounding is (a < b gives image a <= image b), and numpy orders them.
    Scores with equal images are equal exactly when every key agrees on them;
    a run of equal images whose keys differ is ordered by the scores
    themselves, which exact(row, columns) gives, as it gives each code's
    value, its first score's.  Equal scores of different kinds, NaN and a score
    outside the mode's range decline their row.
    """
    sup = mode != "inf"
    rows, m = images.shape
    order = np.argsort(images if sup else -images, axis=1, kind="stable")
    at = lambda a: a.ravel()[order + m * np.arange(rows)[:, None]]  # a, each row ranked
    image = at(images)
    same = tied = image[:, 1:] == image[:, :-1]
    for key in map(at, keys):
        same = same & (key[:, 1:] == key[:, :-1])
    for r, p in zip(*np.nonzero(tied & ~same)):  # distinct scores whose images tie
        runs = np.cumsum(np.r_[True, ~tied[r]])  # runs of equal images along row r
        a, b = np.flatnonzero(runs == runs[p])[[0, -1]] + [0, 1]
        run = order[r, a:b].tolist()
        score = dict(zip(run, exact(r, run)))
        order[r, a:b] = run = sorted(run, key=score.__getitem__, reverse=not sup)
        same[r, a:b - 1] = [score[u] == score[v] for u, v in zip(run, run[1:])]
    kind = at(kinds)
    declined = (same & (kind[:, 1:] != kind[:, :-1])).any(axis=1) | np.isnan(images).any(axis=1)
    first = np.ones((rows, m), dtype=bool)  # the first score of each code
    first[:, 1:] = ~same
    codes = np.empty((rows, m), dtype=np.int64)
    np.put_along_axis(codes, order, np.cumsum(first, axis=1) - 1, axis=1)
    bad = NEG_INF if sup else POS_INF
    values = [None if declined[r] else exact(r, order[r, first[r]].tolist()) for r in range(rows)]
    return codes, [None if v is None or (v and type(v[0]) is float and v[0] == bad) else v
                   for v in values]


def _range_max(keys: np.ndarray, rows: np.ndarray, lo: np.ndarray,
               hi: np.ndarray) -> np.ndarray:
    """max(keys[rows[i], lo[i]:hi[i]]) for every i, -1 where the slice is empty.

    Where every slice is a prefix (balls), a running maximum along each row
    answers it.  Otherwise (shells) a sparse table of maxima over power-of-two
    windows, built in one array, answers each slice with two lookups (Bender &
    Farach-Colton, The LCA Problem Revisited).
    """
    out = np.full(len(rows), -1, dtype=np.int64)
    ok = hi > lo
    if not ok.any():
        return out
    r, a, b = rows[ok], lo[ok], hi[ok]
    if not a.any():
        out[ok] = np.maximum.accumulate(keys, axis=1)[r, b - 1]
        return out
    m = keys.shape[1]
    table = np.empty((m.bit_length(), *keys.shape), dtype=keys.dtype)
    table[0] = keys
    for k in range(1, len(table)):  # window 2**k at j: only j <= m - 2**k is read
        step = 1 << (k - 1)
        np.maximum(table[k - 1, :, :m - step], table[k - 1, :, step:], out=table[k, :, :m - step])
    k = np.frexp(b - a)[1] - 1  # floor(log2(b - a))
    out[ok] = np.maximum(table[k, r, a], table[k, r, b - np.left_shift(1, k)])
    return out


class OptimaBlock:
    """Exact optima of every region G(x, p) of a request's centers, one array each.

    Center c's regions lie along its sorted distance row: points[c, j] brings
    in the tuples whose last point in row order is that point, and region i is
    the slice lo[c, i]:hi[c, i] of score row rows[i] (one score function of a
    center, such as a level t), ranked by point index in ranked[c][row] (see
    _Rankings).  keys[c, row, j] is a single point's key, or keys is the n x n
    pair-key matrix.  A key is code * width + (width - 1 - rank): code ranks the
    score as rank_rows does, rank orders the tuple's point ids, so a range
    maximum names a region's optimum and its least-id optimal tuple.
    """

    def __init__(self, space: FiniteMetricSpace, points: np.ndarray, rows: np.ndarray,
                 lo: np.ndarray, hi: np.ndarray, ranked: list, keys: np.ndarray, arity: int = 1):
        self.space, self.points, self.rows, self.lo, self.hi = space, points, rows, lo, hi
        self.ranked, self.keys, self.arity = ranked, keys, arity
        n, at, ids = len(space), space.points, space.id_order
        self.width, self.row_of = n ** arity, rows.tolist()
        self.witness = (lambda rest: (at[ids[rest]],)) if arity == 1 else (  # by a key's rest
            lambda rest: (at[ids[rest // n]], at[ids[rest % n]]))
        self.best, self.size = self.read(None, slice(None))

    def _keys(self, inside: Optional[np.ndarray], cs) -> np.ndarray:
        """Per center of cs, row and position, the best key among the tuples
        brought in there whose points are all inside (all for None), or -1."""
        if self.arity == 1:
            keys = self.keys[cs]
            return keys if inside is None else np.where(inside[:, None], keys, -1)
        points = self.points[cs]
        keys = self.keys[points[:, :, None], points[:, None, :]]  # one gather, cut in place
        keys[:, np.triu(np.ones(keys.shape[1:], dtype=bool))] = -1  # j < i: pairs closed at i
        if inside is not None:
            keys[~(inside[:, :, None] & inside[:, None, :])] = -1
        return keys.max(axis=2)[:, None]

    def read(self, mask: Optional[np.ndarray], cs) -> tuple[np.ndarray, np.ndarray]:
        """Best key and size of every region of the centers cs (a slice or a
        list of rows), a row each, whole or cut down to tuples of points in mask
        (booleans by point index)."""
        lo, hi = self.lo[cs], self.hi[cs]
        inside = None if mask is None else mask[self.points[cs]]
        keys = self._keys(inside, cs)
        k, levels, m = keys.shape
        count = hi - lo
        if inside is not None:  # points of mask before each position
            before = np.zeros((k, m + 1), dtype=np.int64)
            np.cumsum(inside, axis=1, out=before[:, 1:])
            at = np.arange(k)[:, None]
            count = before[at, hi] - before[at, lo]
        rows = (np.arange(k)[:, None] * levels + self.rows).ravel()
        best = _range_max(keys.reshape(k * levels, m), rows, lo.ravel(), hi.ravel())
        # a slice of k points holds k tuples of arity 1, k(k - 1) ordered pairs
        return best.reshape(k, -1), count if self.arity == 1 else count * (count - 1)


class Optima:
    """Exact optima of every region G(x, p) of one center, in truncation order:
    row c of its OptimaBlock (which holds no reference back)."""

    def __init__(self, block: OptimaBlock, c: int):
        self.block, self.c, self.width, self.best = block, c, block.width, block.best[c]

    size = cached_property(lambda self: self.block.size[self.c].tolist())

    @cached_property
    def _shared(self) -> dict:
        """Each code an int and a Fraction share: its ranking, its two values."""
        return {(row, code): (by_point, fractions, (int(values[code]), Fraction(values[code])))
                for row, (by_point, fractions, values) in enumerate(self.block.ranked[self.c])
                if fractions is not None
                for code in np.intersect1d(*(by_point[kind & (by_point >= 0)] // self.width
                                             for kind in (fractions, ~fractions))).tolist()}

    def value(self, i: int, key: int, mask: Optional[np.ndarray] = None) -> Num:
        """The score of key, region i's best (within mask), of the type of the
        region's first member of its code in point index order, as scanned."""
        b, c = self.block, self.c
        row, code = b.row_of[i], key // self.width
        if (row, code) not in self._shared:
            return b.ranked[c][row][2][code]
        by_point, fractions, typed = self._shared[row, code]
        members = np.sort(b.points[c, b.lo[c, i]:b.hi[c, i]])
        members = members[mask[members]] if mask is not None else members
        first = np.argwhere(by_point[np.ix_(*[members] * b.arity)] // self.width == code)[0]
        return typed[int(fractions[tuple(members[first])])]

    def witness(self, i: int) -> tuple:
        """The optimal tuple of region i with the least ids (region nonempty)."""
        return self.block.witness(self.width - 1 - int(self.best[i]) % self.width)

    @cached_property
    def _by_id(self) -> tuple:
        """Every tuple in id order: its code per row, its key's rest, and the
        least and greatest positions of its points."""
        b, points = self.block, self.block.points[self.c]
        rank = np.argsort(b.space.id_order)[points]  # the id rank of each row position
        order = np.argsort(rank)
        if b.arity == 1:
            return b.keys[self.c][:, order] // self.width, rank[order], order, order
        codes = b.keys[np.ix_(points[order], points[order])] // self.width  # every pair of a row
        first, last = np.minimum.outer(order, order), np.maximum.outer(order, order)
        return codes.reshape(1, -1), np.arange(self.width), first.ravel(), last.ravel()

    def select(self, eps: Num, cap: int, sup: bool) -> list[tuple[int, tuple]]:
        """(i, the cap least-id tuples of region i that _select keeps) for every
        nonempty region i, in truncation order.  A region keeps the codes from
        the least one within eps of its best, found once per (row, best code)
        by bisection in the row's values, which rank_rows orders without NaN;
        the cut compares values, so a code an int and a Fraction share is one."""
        b, values = self.block, [r[2] for r in self.block.ranked[self.c]]
        regions = np.flatnonzero(self.best >= 0)
        bests = list(zip(b.rows[regions].tolist(), (self.best[regions] // self.width).tolist()))
        least = {(row, code): bisect_left(values[row], True,
                                          key=_within(values[row][code], eps, sup))
                 for row, code in set(bests)}
        codes, index, lows, highs = self._by_id
        least_code = np.array([least[r] for r in bests], dtype=np.int64)[:, None]
        ok = ((codes[b.rows[regions]] >= least_code) & (lows >= b.lo[self.c, regions][:, None])
              & (highs < b.hi[self.c, regions][:, None]))
        hit, col = np.nonzero(ok & (np.cumsum(ok, axis=1) <= cap))
        kept = list(map(b.witness, index[col].tolist()))
        ends = np.cumsum(np.bincount(hit, minlength=len(regions))).tolist()
        return [(i, tuple(kept[a:c])) for i, a, c in zip(regions.tolist(), [0] + ends, ends)]

    def read(self, mask: Optional[np.ndarray] = None) -> tuple[np.ndarray, list]:
        """Best key and size of every region, whole or cut down to tuples of points in mask."""
        best, size = self.block.read(mask, slice(self.c, self.c + 1))
        return best[0], size[0].tolist()


@dataclass(frozen=True)
class Provenance:
    """Why a point entered the closure: the witness tuple that carried it."""

    problem: str
    x: Point
    param: object
    witness: tuple
    component: int


@dataclass
class GeneratedSubspace:
    """Result of a closure run: the levels, their union, and bookkeeping."""

    levels: list[tuple[Point, ...]]
    union: tuple[Point, ...]
    fixed_point: bool
    depth_exceeded: bool
    provenance: dict[Point, Provenance]
    skipped_empty: int = 0

    def level_sizes(self) -> list[int]:
        return [len(lv) for lv in self.levels]

    def to_json(self) -> dict:
        return {
            "levels": self.level_sizes(),
            "union": [p.id for p in self.union],
            "fixed_point": self.fixed_point,
            "depth_exceeded": self.depth_exceeded,
            "skipped_empty_regions": self.skipped_empty,
            "provenance": {
                p.id: {
                    "problem": pr.problem,
                    "x": pr.x.id,
                    "param": fmt_param(pr.param),
                    "witness": [c.id for c in pr.witness],
                    "component": pr.component,
                }
                for p, pr in self.provenance.items()
            },
        }


@dataclass
class DeterminacyCheck:
    """One full-vs-restricted comparison at a fixed (x, param)."""

    problem: str
    x: Point
    param: object
    mode: str
    lhs: Optional[Num]
    rhs: Optional[Num]
    region_hit: bool
    verdict: str  # "pass" | "fail" | "skipped-empty-region"
    tolerance: Num
    region_size: int = 0
    restricted_size: int = 0

    @property
    def passed(self) -> bool:
        return self.verdict != "fail"

    def to_json(self) -> dict:
        return {
            "problem": self.problem,
            "x": self.x.id,
            "param": fmt_param(self.param),
            "mode": self.mode,
            "lhs": None if self.lhs is None else fmt(self.lhs),
            "rhs": None if self.rhs is None else fmt(self.rhs),
            "region_hit": self.region_hit,
            "verdict": self.verdict,
            "tolerance": fmt(self.tolerance),
            "region_size": self.region_size,
            "restricted_size": self.restricted_size,
        }


def fmt_param(p: object):
    if isinstance(p, (tuple, list)):
        return [fmt(v) for v in p]
    return fmt(p)


def sort_points(points: Iterable[Point]) -> tuple[Point, ...]:
    return tuple(sorted(set(points), key=lambda p: p.id))


def _id_key(u: tuple) -> tuple:
    return tuple(c.id for c in u)


def _score_region(problem: WitnessProblem, z: tuple, region: Region) -> list:
    """(score, tuple) for every member, with the range guard inlined: only
    floats can be infinite, so it is a cheap type test on exact scores."""
    score = problem.score
    if problem.mode == "sup":
        bad, word = NEG_INF, "-inf"
    else:
        bad, word = POS_INF, "+inf"
    out = []
    for u in region:
        sc = score(z, u)
        if type(sc) is float and sc == bad:
            raise ScoreRangeError(
                f"{problem.name}: {word} score in {problem.mode} mode at {_id_key(u)}")
        out.append((sc, u))
    return out


def _within(best: Num, eps: Num, sup: bool) -> Callable[[Num], bool]:
    """The selection rule: a score is kept when it reaches the cut best - eps
    (best + eps in inf mode), computed in the scores' own arithmetic."""
    if sup:
        cut = best if eps == 0 else best - eps  # best - eps stays +inf when best is
        return lambda v: v >= cut
    cut = best if eps == 0 else best + eps
    return lambda v: v <= cut


def _select(problem: WitnessProblem, x: Point, p: object, region: Region,
            eps: Num, cap: int) -> tuple[tuple, ...]:
    scored = _score_region(problem, (x, p), region)
    sup = problem.mode == "sup"
    kept = _within((max if sup else min)(sc for sc, _ in scored), eps, sup)
    return tuple(sorted((u for sc, u in scored if kept(sc)), key=_id_key)[:cap])


def validate_count(name: str, v, least: int = 1) -> None:
    """Reject a count that is no integer (a slice or range would raise later) or is below least."""
    if not isinstance(v, Integral):
        raise ValueError(f"{name} must be an integer, got {v!r}")
    if v < least:
        raise ValueError(f"{name} must be at least {least}")


def validate_selection(eps: Num, cap: int) -> None:
    """Reject a witness slack below 0, NaN or past the float range (best - inf at
    a +inf best is NaN, which keeps nothing), or a cap that is no integer >= 1."""
    if not eps >= 0:
        raise ValueError("eps must be nonnegative")
    if _image(eps) == POS_INF:
        raise ValueError("eps must be finite")
    validate_count("cap", cap)


def validate_tolerance(tol: Optional[Num]) -> None:
    """Reject a negative or NaN tolerance (None: resolve_tolerance picks one)."""
    if tol is not None and not tol >= 0:
        raise ValueError("tolerance must be nonnegative")


def agree(full, restricted, tol: Num) -> bool:
    """The verdict rule: tuples agree element by element, one object with itself
    (both sides read one table code) under any tol unless it is NaN, None and
    bools by ==, and anything else by value within tol."""
    if type(full) is tuple and restricted is not None:
        return all(agree(u, v, tol) for u, v in zip(full, restricted))
    if full is restricted:
        return not (isinstance(full, float) and full != full)
    if full is None or restricted is None or type(full) is bool:
        return full == restricted
    return close(full, restricted, tol)


def _empty_region(problem: WitnessProblem, x: Point, p: object) -> EmptyRegion:
    return EmptyRegion(f"{problem.name}: empty region at x={x.id}, p={fmt_param(p)}")


def witness_select(problem: WitnessProblem, z: tuple, eps: Num = 0,
                   cap: int = 1) -> tuple[tuple, ...]:
    """Pick up to cap eps-optimal witness tuples of G(z), lexicographically.

    With eps = 0 on a finite region the selection consists of exact optima,
    so it always contains an argmax (argmin).  Deterministic: ties break by
    the tuple of point ids.
    """
    validate_selection(eps, cap)
    x, p = z
    region = problem.region(x, p)
    if region.is_empty:
        raise _empty_region(problem, x, p)
    return _select(problem, x, p, region, eps, cap)


def _common_space(problems: Sequence[WitnessProblem]) -> MetricSpace:
    if not problems:
        raise ValueError("need at least one problem")
    space = problems[0].space
    for prob in problems[1:]:
        if prob.space is not space:
            raise SpaceMismatch(f"problem {prob.name!r} lives on a different space")
    return space


def closure_round(problems: Sequence[WitnessProblem], current: Iterable[Point],
                  eps: Num = 0, cap: int = 1, *, frontier: Optional[Iterable[Point]] = None,
                  strict_empty: bool = False) -> tuple[dict, int]:
    """One sweep: witnesses for every (x in frontier, problem, parameter).

    Returns (new points with provenance, skipped empty-region count).  New
    means: not already in `current`.  Region maps do not depend on the
    growing set, so sweeping only the frontier is exact.  Where the problem
    has an optimum table of x, an exact argmax (eps = 0, cap = 1) is read once
    per distinct key, at the first parameter that has it, and any other
    selection by Optima.select; otherwise regions are scanned.
    """
    validate_selection(eps, cap)
    _common_space(problems)
    known = set(current)
    todo = sort_points(frontier if frontier is not None else known)
    argmax = eps == 0 and cap == 1
    new: dict[Point, Provenance] = {}
    skipped = 0
    tables = [prob.optima(todo) if prob.optima else [None] * len(todo) for prob in problems]
    for x, row in zip(todo, zip(*tables)):
        for prob, table in zip(problems, row):
            trunc = prob.params.truncation
            picks = []
            if table is not None:
                empty = np.flatnonzero(table.best < 0)
                if strict_empty and empty.size:
                    raise _empty_region(prob, x, trunc[empty[0]])
                skipped += empty.size
                if argmax:  # one witness per distinct key, read at the first parameter that has it
                    keys, first = np.unique(table.best, return_index=True)
                    picks = [(trunc[i], (table.witness(i),))
                             for i in np.sort(first[keys >= 0]).tolist()]
                else:
                    picks = [(trunc[i], kept)
                             for i, kept in table.select(eps, cap, prob.mode == "sup")]
            else:
                for p in trunc:
                    region = prob.region(x, p)
                    if not region.is_empty:
                        picks.append((p, _select(prob, x, p, region, eps, cap)))
                    elif strict_empty:
                        raise _empty_region(prob, x, p)
                    else:
                        skipped += 1
            for p, picked in picks:
                for u in picked:
                    for k, pt in enumerate(u):
                        if pt not in known and pt not in new:
                            new[pt] = Provenance(prob.name, x, p, u, k)
    return new, skipped


def _closure(problems: Sequence[WitnessProblem], seed: Iterable[Point], *,
             eps: Num = 0, cap: int = 1, max_depth: Optional[int] = None,
             strict_empty: bool = False) -> GeneratedSubspace:
    space = _common_space(problems)
    seed_pts = sort_points(seed)
    if not seed_pts:
        raise ValueError("seed must be nonempty")
    if isinstance(space, FiniteMetricSpace):
        for p in seed_pts:
            if p not in space:
                raise UnknownPoint(f"seed point {p.id!r} is not in the space")
        if max_depth is None:
            max_depth = len(space) + 1
    elif max_depth is None:
        raise ValueError("lazy spaces need an explicit max_depth")
    validate_count("max_depth", max_depth)

    current: dict[Point, None] = dict.fromkeys(seed_pts)
    levels: list[tuple[Point, ...]] = [tuple(current)]
    provenance: dict[Point, Provenance] = {}
    skipped_total = 0
    frontier: list[Point] = list(current)
    fixed = False
    for _ in range(max_depth):
        new, skipped = closure_round(problems, current, eps, cap,
                                     frontier=frontier, strict_empty=strict_empty)
        skipped_total += skipped
        if not new:
            fixed = True
            levels.append(tuple(current))  # repeated level marks the fixed point
            break
        provenance.update(new)
        current.update(dict.fromkeys(new))
        levels.append(tuple(current))
        frontier = list(new)
    return GeneratedSubspace(
        levels=levels,
        union=tuple(current),
        fixed_point=fixed,
        depth_exceeded=not fixed,
        provenance=provenance,
        skipped_empty=skipped_total,
    )


def closure_iterate(problem: WitnessProblem, seed: Iterable[Point], *,
                    eps: Num = 0, cap: int = 1, max_depth: Optional[int] = None,
                    strict_empty: bool = False) -> GeneratedSubspace:
    """Grow seed to a set closed under the problem's witness operator.

    Levels are strictly increasing until the fixed point, which is recorded
    as a repeated final level.  If max_depth rounds pass without a fixed
    point the result carries depth_exceeded=True (not an exception).
    Empty regions inside the sweep are skipped and counted, unless
    strict_empty is set, in which case they raise EmptyRegion.
    """
    return _closure([problem], seed, eps=eps, cap=cap, max_depth=max_depth,
                    strict_empty=strict_empty)


def intersect_problems(problems: Sequence[WitnessProblem], seed: Iterable[Point], *,
                       eps: Num = 0, cap: int = 1, max_depth: Optional[int] = None,
                       strict_empty: bool = False) -> GeneratedSubspace:
    """Closure under several problems at once over one shared space.

    The result is closed under every listed witness operator, realizing the
    intersection of the corresponding generated families.
    """
    return _closure(list(problems), seed, eps=eps, cap=cap, max_depth=max_depth,
                    strict_empty=strict_empty)


def _skipped(problem: WitnessProblem, x: Point, p: object,
             tol: Optional[Num]) -> DeterminacyCheck:
    return DeterminacyCheck(
        problem=problem.name, x=x, param=p, mode=problem.mode,
        lhs=None, rhs=None, region_hit=False,
        verdict="skipped-empty-region",
        tolerance=resolve_tolerance(tol))


def _compare(problem: WitnessProblem, x: Point, p: object, tol: Optional[Num],
             lhs: Num, rhs: Num, region_size: int, restricted_size: int) -> DeterminacyCheck:
    """Verdict on the full optimum lhs against the restricted optimum rhs, at
    tol or, unset, at the tolerance resolve_tolerance reads from the two."""
    tol = resolve_tolerance(tol, lhs, rhs)
    if restricted_size:
        if problem.mode == "sup" and rhs > lhs:
            raise InvariantViolation(
                f"restricted sup {fmt(rhs)} exceeds full sup {fmt(lhs)}")
        if problem.mode == "inf" and rhs < lhs:
            raise InvariantViolation(
                f"restricted inf {fmt(rhs)} undercuts full inf {fmt(lhs)}")
    region_hit = restricted_size > 0
    verdict = "pass" if region_hit and agree(lhs, rhs, tol) else "fail"
    return DeterminacyCheck(
        problem=problem.name, x=x, param=p, mode=problem.mode,
        lhs=lhs, rhs=rhs, region_hit=region_hit, verdict=verdict,
        tolerance=tol, region_size=region_size, restricted_size=restricted_size)


def _check(problem: WitnessProblem, Yset: set, z: tuple,
           tol: Optional[Num]) -> DeterminacyCheck:
    validate_tolerance(tol)
    x, p = z
    if x not in Yset:
        raise UnknownPoint(f"check center {x.id!r} must lie in Y")
    region = problem.region(x, p)
    if region.is_empty:
        return _skipped(problem, x, p, tol)
    scored = _score_region(problem, z, region)
    restricted = [sc for sc, u in scored if all(c in Yset for c in u)]
    if problem.mode == "sup":
        lhs = max(sc for sc, _ in scored)
        rhs = max(restricted) if restricted else NEG_INF
    else:
        lhs = min(sc for sc, _ in scored)
        rhs = min(restricted) if restricted else POS_INF
    return _compare(problem, x, p, tol, lhs, rhs, len(region), len(restricted))


def _requested(problem: WitnessProblem, Y: Sequence[Point]) -> tuple:
    """Y as a set, Y's tables from one request, Y's mask by point index (None
    without a table), and per block of those tables the row of each of its
    centers (at), their best keys, and within Y their best keys and sizes."""
    Yset = set(Y)
    tables = problem.optima(Y) if problem.optima else [None] * len(Y)
    mask = np.array([u in Yset for u in problem.space.points]) if any(tables) else None
    rows: dict = {}
    for table in filter(None, tables):
        rows.setdefault(table.block, {}).setdefault(table.c, len(rows[table.block]))
    return Yset, tables, mask, {block: (at, block.best[list(at)], *block.read(mask, list(at)))
                                for block, at in rows.items()}


def _table_verdicts(problem: WitnessProblem, x: Point, table: Optima, read: tuple,
                    mask: np.ndarray, tol: Optional[Num]) -> tuple:
    """x's skipped count, failing checks and check(i) from its block's read and
    its per-row verdicts (whether a restricted key beats the full one, the
    skipped count, whether the codes differ): keys sharing a code pass under
    any tolerance (agree's rule over the block's arrays), and only the others
    go to check(i)."""
    trunc, (at, best, rbest, rsize, above, skips, differ) = problem.params.truncation, read
    j = at[table.c]
    if above[j]:
        i = int(np.argmax(rbest[j] > best[j]))
        raise InvariantViolation(f"{problem.name}: restricted key {rbest[j, i]} beats full key "
                                 f"{best[j, i]} at x={x.id}, p={fmt_param(trunc[i])}")
    unhit = NEG_INF if problem.mode == "sup" else POS_INF  # rhs when no tuple lies in Y

    def check(i: int) -> DeterminacyCheck:
        if best[j, i] < 0:
            return _skipped(problem, x, trunc[i], tol)
        rhs = table.value(i, rbest[j, i], mask) if rbest[j, i] >= 0 else unhit
        return _compare(problem, x, trunc[i], tol, table.value(i, best[j, i]), rhs,
                        table.size[i], int(rsize[j, i]))

    failing = [check(i) for i in np.flatnonzero(differ[j]).tolist()]
    return skips[j], [c for c in failing if c.verdict == "fail"], check


def _sweep_centers(problem: WitnessProblem, Y: Iterable[Point],
                   tol: Optional[Num]) -> Iterator[tuple]:
    """(x, skipped count, failing checks, check) for every x in Y, x-major: Y's
    tables come from one request, each of their blocks is read within Y by one
    call, and centers without a table are scanned."""
    validate_tolerance(tol)
    Y = tuple(Y)
    Yset, tables, mask, reads = _requested(problem, Y)
    for block, (at, best, rbest, rsize) in reads.items():
        reads[block] = (at, best, rbest, rsize, (rbest > best).any(axis=1), (best < 0).sum(
            axis=1).tolist(), (best >= 0) & (best // block.width != rbest // block.width))
    for x, table in zip(Y, tables):
        if table is not None:
            yield x, *_table_verdicts(problem, x, table, reads[table.block], mask, tol)
            continue
        checks = [_check(problem, Yset, (x, p), tol) for p in problem.params.truncation]
        yield (x, sum(c.verdict == "skipped-empty-region" for c in checks),
               [c for c in checks if c.verdict == "fail"], checks.__getitem__)


def fold_codes(codes: np.ndarray, groups: np.ndarray) -> np.ndarray:
    """Per row of codes (one per region, larger for better, -1 where empty), the
    index of the first least among each group's first greatest, the groups
    taken in order of their first nonempty region; -1 where every region is
    empty.  groups labels each region (an int64 array; groups need not be
    contiguous)."""
    rows, m = codes.shape
    if not m:
        return np.full(rows, -1, dtype=np.int64)
    order = np.argsort(groups, kind="stable")
    sorted_groups = groups[order]
    starts = np.flatnonzero(np.concatenate(([True], sorted_groups[1:] != sorted_groups[:-1])))
    ranked = codes[:, order]
    # per group the greatest code and its least index (a key below 0 where empty),
    # and its first nonempty index, which breaks ties between groups
    best = np.maximum.reduceat(ranked * m + (m - 1 - order), starts, axis=1)
    first = np.minimum.reduceat(np.where(ranked >= 0, order, m), starts, axis=1)
    code = best // m
    pick = np.argmin(np.where(code >= 0, code * (m + 1) + first, 2 ** 62), axis=1)
    got = best[np.arange(rows), pick]
    return np.where(got >= 0, m - 1 - got % m, -1)


def _scan(problem: WitnessProblem, x: Point,
          allowed: Optional[set]) -> tuple[np.ndarray, Callable[[int], int], Callable[[int], Num]]:
    """Every region of x within allowed (None: all), scanned: per region a code
    (the rank of its first optimum in enumeration order, larger for better in
    the problem's mode, -1 where empty), and size(k) and value(k), region k's
    size in tuples (a pair once) and its optimum."""
    optimum, sign = (max, 1) if problem.mode == "sup" else (min, -1)
    values, sizes = [], []
    for p in problem.params:
        got = [problem.score((x, p), u) for u in problem.region(x, p)
               if allowed is None or all(c in allowed for c in u)]
        values.append(optimum(got, default=None))
        sizes.append(len(got) // problem.arity)
    rank = {v: k for k, v in enumerate(sorted({sign * v for v in values if v is not None}))}
    codes = [-1 if v is None else rank[sign * v] for v in values]
    return np.array(codes, dtype=np.int64), sizes.__getitem__, values.__getitem__


def fold_sweep(problem: WitnessProblem, Y: Sequence[Point],
               groups: np.ndarray) -> Iterator[tuple]:
    """(x, folds, same, value) for every x in Y: the fold_codes of x's regions
    whole and within Y (-1 where all are empty), whether the two folds read
    one table code, and value(side), the optimum a fold names (0 whole, 1
    within Y), built when called.  Y's tables come from one request, and
    each of their blocks is read and folded once; a center without a table
    is scanned, and its sides compare by value."""
    Y = tuple(Y)
    Yset, tables, mask, reads = _requested(problem, Y)
    folded = {}
    for block, (at, *keys, _) in reads.items():
        keys = np.stack(keys)  # side, center, region
        codes = keys // block.width  # an empty region's key, -1, stays -1
        folds = fold_codes(codes.reshape(-1, codes.shape[2]), groups).reshape(2, -1)
        picked = np.take_along_axis(codes, np.maximum(folds, 0)[:, :, None], 2)[:, :, 0]
        folded[block] = at, keys, folds, ((folds >= 0).all(0) & (picked[0] == picked[1])).tolist()
    for x, table in zip(Y, tables):
        if table is None:
            sides = [_scan(problem, x, a) for a in (None, Yset)]
            k = fold_codes(np.stack([codes for codes, _, _ in sides]), groups).tolist()
            yield x, k, False, lambda side, sides=sides, k=k: sides[side][2](k[side])
            continue
        at, keys, folds, same = folded[table.block]
        j = at[table.c]
        k = folds[:, j].tolist()
        yield x, k, same[j], lambda side, t=table, key=keys[:, j], k=k: t.value(
            k[side], int(key[side, k[side]]), mask if side else None)


def check_sweep(problem: WitnessProblem, Y: Iterable[Point],
                tol: Optional[Num] = None) -> Iterator[DeterminacyCheck]:
    """check_reduction at every (x in Y, p in the truncation), x-major, by table or scan."""
    for *_, check in _sweep_centers(problem, Y, tol):
        yield from map(check, range(len(problem.params.truncation)))


def sweep_tally(problem: WitnessProblem, Y: Iterable[Point], tol: Optional[Num] = None,
                drawn: Optional[tuple] = None) -> tuple:
    """check_sweep's (passed, skipped) counts, its failing checks in order, and
    its check at drawn (an (x, p), or None); no other check is built."""
    trunc = problem.params.truncation
    passed, skipped, failures, picked = 0, 0, [], None
    for x, skip, failing, check in _sweep_centers(problem, Y, tol):
        skipped += skip
        passed += len(trunc) - skip - len(failing)
        failures.extend(failing)
        if drawn is not None and x is drawn[0]:
            picked = check(trunc.index(drawn[1]))
    return passed, skipped, failures, picked


def check_reduction(problem: WitnessProblem, Y: Iterable[Point], z: tuple,
                    tol: Optional[Num] = None) -> DeterminacyCheck:
    """Compare the optimum over G(z) with the optimum over tuples of Y inside G(z).

    In the problem's mode the restricted optimum can never beat the full one
    (raised as an internal invariant if it ever did).  tol=None resolves to
    1e-12 when either optimum is a finite float and to 0 otherwise, so exact
    optima compare exactly whatever else the region holds.  An empty region
    yields the verdict "skipped-empty-region".
    """
    return _check(problem, set(Y), z, tol)


def product_closure(make_problem: Callable[[Point], WitnessProblem],
                    seed1: Iterable[Point], seed2: Iterable[Point], *,
                    eps: Num = 0, cap: int = 1, max_depth: Optional[int] = None,
                    strict_empty: bool = False) -> tuple[GeneratedSubspace, tuple[Point, ...]]:
    """Closure in the first factor under the operators of every second-factor seed.

    Returns (Y1, Y2) with Y2 the sorted second seed and Y1 closed under the
    witness operator of the score slice at every y in Y2.  The Lipschitz
    bound in the second variable that makes the slices separably determined
    is the caller's to check (`verify_lipschitz_second`).
    """
    Y2 = sort_points(seed2)
    if not Y2:
        raise ValueError("second seed must be nonempty")
    result = _closure([make_problem(y) for y in Y2], seed1, eps=eps, cap=cap,
                      max_depth=max_depth, strict_empty=strict_empty)
    return result, Y2


DEFAULT_COEFFS = (Fraction(-1), Fraction(0), Fraction(1, 2), Fraction(1))


def _coord_id(coords: tuple) -> str:
    return "lin(" + ",".join(str(fmt(c)) for c in coords) + ")"


def rational_span_close(points: Sequence[Point], budget: int,
                        coeffs: Sequence[Num] = DEFAULT_COEFFS) -> tuple[Point, ...]:
    """One enlargement pass by rational linear combinations.

    Adds scalar multiples c*v and distinct-pair combinations c1*v1 + c2*v2
    with coefficients from the grid, deduplicated by coordinates, keeping the
    output size at most max(budget, len(points)).  Input points always stay.
    """
    pts = list(points)
    for p in pts:
        if p.coords is None:
            raise NoCoordinates(f"point {p.id} has no coordinates")
    dims = {len(p.coords) for p in pts}
    if len(dims) > 1:
        raise ValueError("all points must share one dimension")
    seen = {p.coords: p for p in pts}
    out = list(pts)
    room = max(budget, len(pts)) - len(pts)

    def _add(coords: tuple) -> None:
        nonlocal room
        if room <= 0 or coords in seen:
            return
        fresh = Point(id=_coord_id(coords), coords=coords)
        seen[coords] = fresh
        out.append(fresh)
        room -= 1

    ordered = sorted(pts, key=lambda p: p.id)
    for v in ordered:
        for c in coeffs:
            _add(tuple(c * x for x in v.coords))
    for v1, v2 in itertools.combinations(ordered, 2):
        for c1 in coeffs:
            for c2 in coeffs:
                _add(tuple(c1 * a + c2 * b for a, b in zip(v1.coords, v2.coords)))
    return tuple(out)
