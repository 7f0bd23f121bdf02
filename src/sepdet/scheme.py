"""Witness selection, closure to a fixed point, and restriction checks.

The engine works over a witness problem: a space, a parameter truncation, a
region map G(x, p) into l-tuples, and a score to maximize (sup mode) or
minimize (inf mode).  `closure_iterate` grows a seed set level by level,
inserting the components of optimal witness tuples for every (point,
parameter) pair, until nothing new appears.  `check_sweep` then compares at
every (center, parameter) the optimum over the full region with the optimum
over tuples of the generated set, which never beats it and on a fixed point
equals it; `sweep_tally` counts the verdicts.

Exact argmax closures and check sweeps read a problem's per-center optimum
table (`Optima`) where the family supplies one: a closure round reads each
distinct witness key once, at its first parameter; a sweep passes full and
restricted keys that share a code (equal codes are equal values) and compares
values where codes differ.  Other selections, lazy spaces and single checks
scan the regions.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Optional, Sequence

import numpy as np

from .errors import (
    EmptyRegion,
    InvariantViolation,
    NoCoordinates,
    ScoreRangeError,
    SpaceMismatch,
    UnknownPoint,
)
from .extreal import (
    FLOAT_TOL,
    NEG_INF,
    POS_INF,
    Num,
    close,
    fmt,
    is_finite,
)
from .spaces import FiniteMetricSpace, MetricSpace, Point, Region


@dataclass(frozen=True)
class ParamSpace:
    """A separable parameter space, given by its finite truncation.

    The truncation is the finite, duplicate-free sample of a dense subset
    actually swept by closures and checks: scalar radii or (t, r, s) shell
    triples, opaque to the engine.
    """

    truncation: tuple

    def __post_init__(self):
        seen = set()
        for p in self.truncation:
            if p in seen:
                raise ValueError(f"duplicate parameter {p!r} in truncation")
            seen.add(p)


@dataclass(frozen=True)
class WitnessProblem:
    """A region map plus a score over one space, swept along a truncation.

    region(x, p) materializes G(x, p); member(x, p, u) decides membership of
    a candidate tuple independently, which is what the brute-force oracle
    scans with.  In sup mode scores live in R ∪ {+inf}, in inf mode in
    R ∪ {-inf}; a score outside the range is an error.  optima(x), when the
    family supplies it, returns the exact optima of every G(x, p) at once, or
    None for a center left to the region scan.
    """

    name: str
    space: MetricSpace
    params: ParamSpace
    arity: int
    mode: str
    region: Callable[[Point, object], Region]
    member: Callable[[Point, object, tuple], bool]
    score: Callable[[tuple, tuple], Num]
    optima: Optional[Callable[[Point], Optional["Optima"]]] = None

    def __post_init__(self):
        if self.mode not in ("sup", "inf"):
            raise ValueError(f"mode must be 'sup' or 'inf', got {self.mode!r}")
        if self.arity < 1:
            raise ValueError("arity must be at least 1")


def rank_scores(scores: Sequence[Num], mode: str) -> Optional[tuple[list[int], list]]:
    """Integer codes of scores, larger for better in mode, and the score of each code.

    None when a score is NaN or lies outside the mode's range, or when two
    equal scores differ in type (int 2 and Fraction(2)) or in the sign of a
    float zero: the scan reports the first optimal member, so such rows are
    left to it.
    """
    order = sorted(range(len(scores)), key=scores.__getitem__, reverse=mode == "inf")
    codes = [0] * len(scores)
    values: list = []
    for j in order:
        v = scores[j]
        if values and v == values[-1]:
            w = values[-1]
            if type(v) is not type(w) or (type(v) is float and str(v) != str(w)):
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


def _range_max(keys: np.ndarray, rows: np.ndarray, lo: np.ndarray,
               hi: np.ndarray) -> np.ndarray:
    """max(keys[rows[i], lo[i]:hi[i]]) for every i, -1 where the slice is empty.

    A sparse table of maxima over power-of-two windows answers each query
    with two lookups (Bender & Farach-Colton, The LCA Problem Revisited).
    """
    out = np.full(len(rows), -1, dtype=np.int64)
    ok = hi > lo
    if not ok.any():
        return out
    m = keys.shape[1]
    table = [keys]
    step = 1
    while 2 * step <= m:
        prev = table[-1]
        level = np.full_like(keys, -1)
        level[:, :m - step] = np.maximum(prev[:, :m - step], prev[:, step:])
        table.append(level)
        step *= 2
    stack = np.stack(table)
    r, a, b = rows[ok], lo[ok], hi[ok]
    k = np.frexp(b - a)[1] - 1  # floor(log2(b - a))
    out[ok] = np.maximum(stack[k, r, a], stack[k, r, b - np.left_shift(1, k)])
    return out


class Optima:
    """Exact optima of every region G(x, p) of one center, in truncation order.

    A family lays x's regions out along x's sorted distance row: position j
    holds point index points[j] and brings in the tuples whose last point in
    row order is that point.  Region i is the slice lo[i]:hi[i] of score row
    rows[i] (one row per distinct score function of x, such as a level t).
    keys_for(mask) gives, per row and position, the best key among the tuples
    brought in there whose points all lie in mask (all of them for None), or
    -1.  A key is code * width + (width - 1 - rank): code ranks the score as
    rank_scores does (values[row][code] is the score) and rank orders the
    tuple's point ids, decoded by witness_of.  A region's optimum is then a
    range maximum whose code names the value and whose rest names the optimal
    tuple with the least ids.  floats marks positions bringing in a finite
    float score.
    """

    def __init__(self, points: np.ndarray, keys_for: Callable, rows: np.ndarray,
                 lo: np.ndarray, hi: np.ndarray, values: list, width: int, arity: int,
                 witness_of: Callable[[int], tuple], floats: np.ndarray):
        self.points = points
        self._keys_for = keys_for
        self._slices = (rows, lo, hi)
        self._values = values
        self._rows = rows.tolist()
        self.width = width
        self._arity = arity
        self._witness_of = witness_of
        self.best, self.size = self.read()
        counts = np.zeros((floats.shape[0], floats.shape[1] + 1), dtype=np.int64)
        np.cumsum(floats, axis=1, out=counts[:, 1:])
        self.floaty = (counts[rows, hi] > counts[rows, lo]).tolist()

    def value(self, i: int, key: int) -> Num:
        return self._values[self._rows[i]][key // self.width]

    def witness(self, i: int) -> tuple:
        """The optimal tuple of region i with the least ids (region nonempty)."""
        return self._witness_of(self.width - 1 - int(self.best[i]) % self.width)

    def read(self, mask: Optional[np.ndarray] = None) -> tuple[np.ndarray, list]:
        """Best key and size of every region, whole or cut down to tuples of
        points in mask (a boolean array over the space's point indices)."""
        rows, lo, hi = self._slices
        count = hi - lo
        if mask is not None:
            inside = np.zeros(len(self.points) + 1, dtype=np.int64)
            np.cumsum(mask[self.points], out=inside[1:])
            count = inside[hi] - inside[lo]
        # a slice of k points holds k tuples of arity 1, k(k - 1) ordered pairs
        sizes = count if self._arity == 1 else count * (count - 1)
        return _range_max(self._keys_for(mask), rows, lo, hi), sizes.tolist()


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

    def union_set(self) -> frozenset:
        return frozenset(self.union)

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
    if isinstance(p, tuple):
        return [fmt(v) for v in p]
    return fmt(p)


def sort_points(points: Iterable[Point]) -> tuple[Point, ...]:
    return tuple(sorted(set(points), key=lambda p: p.id))


def _id_key(u: tuple) -> tuple:
    return tuple(c.id for c in u)


def _score_region(problem: WitnessProblem, z: tuple, region: Region) -> list:
    """(score, tuple) for every member, with the range guard inlined.

    Only floats can be infinite, so the guard is a cheap type test on the
    rational fast path.
    """
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


def _select(problem: WitnessProblem, x: Point, p: object, region: Region,
            eps: Num, cap: int) -> tuple[tuple, ...]:
    z = (x, p)
    scored = _score_region(problem, z, region)
    if problem.mode == "sup":
        best = max(sc for sc, _ in scored)
        cut = best if eps == 0 else best - eps  # best - eps stays +inf when best is
        optimal = [u for sc, u in scored if sc >= cut]
    else:
        best = min(sc for sc, _ in scored)
        cut = best if eps == 0 else best + eps
        optimal = [u for sc, u in scored if sc <= cut]
    optimal.sort(key=_id_key)
    return tuple(optimal[:cap])


def validate_selection(eps: Num, cap: int) -> None:
    """Reject a witness slack below 0 or a cap below 1."""
    if eps < 0:
        raise ValueError("eps must be nonnegative")
    if cap < 1:
        raise ValueError("cap must be at least 1")


def validate_tolerance(tol: Optional[Num]) -> None:
    """Reject a negative comparison tolerance (None picks one by score type)."""
    if tol is not None and tol < 0:
        raise ValueError("tolerance must be nonnegative")


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
    growing set, so sweeping only the frontier is exact.  With eps = 0 and
    cap = 1 the witness is the exact argmax (argmin), read from the
    problem's optimum table where it has one, once per distinct key at the
    first parameter that has it; otherwise regions are scanned.
    """
    _common_space(problems)
    known = set(current)
    todo = sort_points(frontier if frontier is not None else known)
    argmax = eps == 0 and cap == 1
    new: dict[Point, Provenance] = {}
    skipped = 0
    for x in todo:
        for prob in problems:
            trunc = prob.params.truncation
            table = prob.optima(x) if argmax and prob.optima is not None else None
            picks = []
            if table is not None:
                empty = np.flatnonzero(table.best < 0)
                if strict_empty and empty.size:
                    raise _empty_region(prob, x, trunc[empty[0]])
                skipped += empty.size
                # one witness per distinct key, read at the first parameter that has it
                keys, first = np.unique(table.best, return_index=True)
                picks = [(trunc[i], (table.witness(i),))
                         for i in np.sort(first[keys >= 0]).tolist()]
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
    validate_selection(eps, cap)
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
    if max_depth < 1:
        raise ValueError("max_depth must be at least 1")

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
        tolerance=0 if tol is None else tol)


def _compare(problem: WitnessProblem, x: Point, p: object, tol: Optional[Num],
             lhs: Num, rhs: Num, region_size: int, restricted_size: int,
             floaty: bool) -> DeterminacyCheck:
    """Verdict on the full optimum lhs against the restricted optimum rhs.

    floaty: the region holds a finite float score, which resolves tol=None
    to the float tolerance (infinities compare exactly, so they do not).
    """
    if tol is None:
        tol = FLOAT_TOL if floaty else 0
    if restricted_size:
        if problem.mode == "sup" and rhs > lhs:
            raise InvariantViolation(
                f"restricted sup {fmt(rhs)} exceeds full sup {fmt(lhs)}")
        if problem.mode == "inf" and rhs < lhs:
            raise InvariantViolation(
                f"restricted inf {fmt(rhs)} undercuts full inf {fmt(lhs)}")
    region_hit = restricted_size > 0
    verdict = "pass" if region_hit and close(lhs, rhs, tol) else "fail"
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
    if problem.arity == 1:
        restricted = [sc for sc, u in scored if u[0] in Yset]
    else:
        restricted = [sc for sc, u in scored if all(c in Yset for c in u)]
    floaty = tol is None and any(type(sc) is float and is_finite(sc) for sc, _ in scored)
    if problem.mode == "sup":
        lhs = max(sc for sc, _ in scored)
        rhs = max(restricted) if restricted else NEG_INF
    else:
        lhs = min(sc for sc, _ in scored)
        rhs = min(restricted) if restricted else POS_INF
    return _compare(problem, x, p, tol, lhs, rhs, len(region), len(restricted), floaty)


def _center_verdicts(problem: WitnessProblem, x: Point, Yset: set, table: Optional[Optima],
                     mask: Optional[np.ndarray], tol: Optional[Num]) -> tuple:
    """Per-parameter skipped and failed flags at x, and check(i), by the scan or
    by the table: keys sharing a code pass under any tolerance (equal codes are
    equal values), and only the others are compared by value."""
    trunc = problem.params.truncation
    if table is None:
        checks = [_check(problem, Yset, (x, p), tol) for p in trunc]
        verdicts = np.array([c.verdict for c in checks], dtype=object)
        return verdicts == "skipped-empty-region", verdicts == "fail", checks.__getitem__
    best, (rbest, rsize) = table.best, table.read(mask)
    above = np.flatnonzero(rbest > best)
    if above.size:
        i = above[0]
        raise InvariantViolation(f"{problem.name}: restricted key {rbest[i]} beats full key "
                                 f"{best[i]} at x={x.id}, p={fmt_param(trunc[i])}")
    skipped = best < 0
    unhit = NEG_INF if problem.mode == "sup" else POS_INF  # rhs when no tuple lies in Y

    def check(i: int) -> DeterminacyCheck:
        if skipped[i]:
            return _skipped(problem, x, trunc[i], tol)
        rhs = table.value(i, rbest[i]) if rbest[i] >= 0 else unhit
        return _compare(problem, x, trunc[i], tol, table.value(i, best[i]), rhs,
                        table.size[i], rsize[i], table.floaty[i])

    failed = np.zeros(len(trunc), dtype=bool)
    for i in np.flatnonzero(~skipped & (best // table.width != rbest // table.width)).tolist():
        failed[i] = check(i).verdict == "fail"
    return skipped, failed, check


def _sweep_centers(problem: WitnessProblem, Y: Iterable[Point],
                   tol: Optional[Num]) -> Iterator[tuple]:
    """(x, skipped, failed, check) for every x in Y, x-major; Y's membership is built once."""
    validate_tolerance(tol)
    Y = tuple(Y)
    Yset = set(Y)
    mask = None
    for x in Y:
        table = problem.optima(x) if problem.optima is not None else None
        if table is not None and mask is None:
            mask = np.zeros(len(problem.space), dtype=bool)
            mask[[problem.space.index_of(y) for y in Yset if y in problem.space]] = True
        yield x, *_center_verdicts(problem, x, Yset, table, mask, tol)


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
    for x, skip, fail, check in _sweep_centers(problem, Y, tol):
        skipped += int(skip.sum())
        passed += len(trunc) - int(skip.sum()) - int(fail.sum())
        failures.extend(map(check, np.flatnonzero(fail).tolist()))
        if drawn is not None and x is drawn[0]:
            picked = check(trunc.index(drawn[1]))
    return passed, skipped, failures, picked


def check_reduction(problem: WitnessProblem, Y: Iterable[Point], z: tuple,
                    tol: Optional[Num] = None) -> DeterminacyCheck:
    """Compare the optimum over G(z) with the optimum over tuples of Y inside G(z).

    In the problem's mode the restricted optimum can never beat the full one
    (raised as an internal invariant if it ever did).  tol=None resolves to 0
    when every score is exact (int/Fraction) and to 1e-12 otherwise.  An empty
    region yields the verdict "skipped-empty-region".
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
