"""Witness selection, closure to a fixed point, and restriction checks.

The engine works over a witness problem: a space, a parameter truncation, a
region map G(x, p) into l-tuples, and a score to maximize (sup mode) or
minimize (inf mode).  `closure_iterate` grows a seed set level by level,
inserting the components of optimal witness tuples for every (point,
parameter) pair, until nothing new appears.  `check_sup_reduction` /
`check_inf_reduction` then compare the optimum over the full region against
the optimum over tuples drawn from the generated set; the restricted optimum
can never beat the full one, and on a generated fixed point the two agree
exactly.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Optional, Sequence

from .errors import (
    EmptyRegion,
    InvariantViolation,
    LipschitzViolation,
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
    is_exact,
    is_finite,
    is_neg_inf,
    is_pos_inf,
)
from .spaces import FiniteMetricSpace, MetricSpace, Point, Region

Param = object  # scalar radius or (t, r, s) triple; opaque to the engine


@dataclass(frozen=True)
class ParamSpace:
    """A separable parameter space: metric, dense enumerator, finite truncation.

    The truncation is the finite, duplicate-free sample of the dense subset
    actually swept by closures and checks.
    """

    description: str
    rho: Callable[[Param, Param], Num]
    dense: Callable[[], Iterator[Param]]
    truncation: tuple

    def __post_init__(self):
        seen = set()
        for p in self.truncation:
            if p in seen:
                raise ValueError(f"duplicate parameter {p!r} in truncation")
            seen.add(p)


def _dyadic_scalars() -> Iterator[Fraction]:
    # 1, 1/2, 3/2, 1/4, 3/4, ... every positive dyadic appears once
    seen = set()
    level = 0
    while True:
        den = 2 ** level
        for num in range(1, (level + 2) * den):
            q = Fraction(num, den)
            if q not in seen:
                seen.add(q)
                yield q
        level += 1


def _dyadic_shells() -> Iterator[tuple]:
    scalars: list[Fraction] = []
    gen = _dyadic_scalars()
    seen = set()
    while True:
        scalars.append(next(gen))
        for t in scalars:
            for r in scalars:
                for s in scalars:
                    if r < s and (t, r, s) not in seen:
                        seen.add((t, r, s))
                        yield (t, r, s)


def positive_scalar_params(truncation: Sequence[Num]) -> ParamSpace:
    return ParamSpace(
        description="positive scalar radii",
        rho=lambda a, b: abs(a - b),
        dense=_dyadic_scalars,
        truncation=tuple(truncation),
    )


def shell_params(truncation: Sequence[tuple]) -> ParamSpace:
    return ParamSpace(
        description="(level, inner, outer) shell triples",
        rho=lambda a, b: max(abs(a[i] - b[i]) for i in range(3)),
        dense=_dyadic_shells,
        truncation=tuple(truncation),
    )


@dataclass(frozen=True)
class WitnessProblem:
    """A region map plus a score over one space, swept along a truncation.

    region(x, p) materializes G(x, p); member(x, p, u) decides membership of
    a candidate tuple independently, which is what the brute-force oracle
    scans with.  In sup mode scores live in R ∪ {+inf}, in inf mode in
    R ∪ {-inf}; a score outside the range is an error.
    """

    name: str
    space: MetricSpace
    params: ParamSpace
    arity: int
    mode: str
    region: Callable[[Point, Param], Region]
    member: Callable[[Point, Param, tuple], bool]
    score: Callable[[tuple, tuple], Num]

    def __post_init__(self):
        if self.mode not in ("sup", "inf"):
            raise ValueError(f"mode must be 'sup' or 'inf', got {self.mode!r}")
        if self.arity < 1:
            raise ValueError("arity must be at least 1")


@dataclass(frozen=True)
class Provenance:
    """Why a point entered the closure: the witness tuple that carried it."""

    problem: str
    x: Point
    param: Param
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
    param: Param
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


def fmt_param(p: Param):
    if isinstance(p, tuple):
        return [fmt(v) for v in p]
    return fmt(p)


def sort_points(points: Iterable[Point]) -> tuple[Point, ...]:
    return tuple(sorted(set(points), key=lambda p: p.id))


def _id_key(u: tuple) -> tuple:
    return tuple(c.id for c in u)


def _checked_score(problem: WitnessProblem, z: tuple, u: tuple) -> Num:
    sc = problem.score(z, u)
    if problem.mode == "sup":
        if is_neg_inf(sc):
            raise ScoreRangeError(f"{problem.name}: -inf score in sup mode at {_id_key(u)}")
    elif is_pos_inf(sc):
        raise ScoreRangeError(f"{problem.name}: +inf score in inf mode at {_id_key(u)}")
    return sc


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


def _select(problem: WitnessProblem, x: Point, p: Param, region: Region,
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


def witness_select(problem: WitnessProblem, z: tuple, eps: Num = 0,
                   cap: int = 1) -> tuple[tuple, ...]:
    """Pick up to cap eps-optimal witness tuples of G(z), lexicographically.

    With eps = 0 on a finite region the selection consists of exact optima,
    so it always contains an argmax (argmin).  Deterministic: ties break by
    the tuple of point ids.
    """
    if eps < 0:
        raise ValueError("eps must be nonnegative")
    if cap < 1:
        raise ValueError("cap must be at least 1")
    x, p = z
    region = problem.region(x, p)
    if region.is_empty:
        raise EmptyRegion(f"{problem.name}: empty region at x={x.id}, p={fmt_param(p)}")
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
    growing set, so sweeping only the frontier is exact.
    """
    space = _common_space(problems)
    known = set(current)
    todo = sort_points(frontier if frontier is not None else known)
    new: dict[Point, Provenance] = {}
    skipped = 0
    for x in todo:
        for prob in problems:
            for p in prob.params.truncation:
                region = prob.region(x, p)
                if region.is_empty:
                    if strict_empty:
                        raise EmptyRegion(
                            f"{prob.name}: empty region at x={x.id}, p={fmt_param(p)}")
                    skipped += 1
                    continue
                for u in _select(prob, x, p, region, eps, cap):
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


def _check(problem: WitnessProblem, Y: Iterable[Point], z: tuple,
           tol: Optional[Num]) -> DeterminacyCheck:
    x, p = z
    Yset = set(Y)
    if x not in Yset:
        raise UnknownPoint(f"check center {x.id!r} must lie in Y")
    region = problem.region(x, p)
    if region.is_empty:
        return DeterminacyCheck(
            problem=problem.name, x=x, param=p, mode=problem.mode,
            lhs=None, rhs=None, region_hit=False,
            verdict="skipped-empty-region",
            tolerance=0 if tol is None else tol)
    scored = _score_region(problem, z, region)
    if problem.arity == 1:
        restricted = [sc for sc, u in scored if u[0] in Yset]
    else:
        restricted = [sc for sc, u in scored if all(c in Yset for c in u)]
    if tol is None:
        # infinities compare exactly regardless of tolerance, so they do not
        # force the float branch; only floats can be inexact
        tol = (FLOAT_TOL if any(type(sc) is float and is_finite(sc) for sc, _ in scored)
               else 0)
    if problem.mode == "sup":
        lhs = max(sc for sc, _ in scored)
        rhs = max(restricted) if restricted else NEG_INF
        if restricted and rhs > lhs:
            raise InvariantViolation(
                f"restricted sup {fmt(rhs)} exceeds full sup {fmt(lhs)}")
    else:
        lhs = min(sc for sc, _ in scored)
        rhs = min(restricted) if restricted else POS_INF
        if restricted and rhs < lhs:
            raise InvariantViolation(
                f"restricted inf {fmt(rhs)} undercuts full inf {fmt(lhs)}")
    region_hit = bool(restricted)
    verdict = "pass" if region_hit and close(lhs, rhs, tol) else "fail"
    return DeterminacyCheck(
        problem=problem.name, x=x, param=p, mode=problem.mode,
        lhs=lhs, rhs=rhs, region_hit=region_hit, verdict=verdict,
        tolerance=tol, region_size=len(region), restricted_size=len(restricted))


def check_sup_reduction(problem: WitnessProblem, Y: Iterable[Point], z: tuple,
                        tol: Optional[Num] = None) -> DeterminacyCheck:
    """Compare sup over G(z) with sup over tuples of Y inside G(z).

    The restricted sup can never exceed the full one (raised as an internal
    invariant if it ever did).  tol=None resolves to 0 when every score is
    exact (int/Fraction) and to 1e-12 otherwise.  An empty region yields the
    verdict "skipped-empty-region".
    """
    if problem.mode != "sup":
        raise ValueError(f"problem {problem.name!r} is not in sup mode")
    return _check(problem, Y, z, tol)


def check_inf_reduction(problem: WitnessProblem, Y: Iterable[Point], z: tuple,
                        tol: Optional[Num] = None) -> DeterminacyCheck:
    """Mirror of check_sup_reduction for inf-mode problems."""
    if problem.mode != "inf":
        raise ValueError(f"problem {problem.name!r} is not in inf mode")
    return _check(problem, Y, z, tol)


def check_reduction(problem: WitnessProblem, Y: Iterable[Point], z: tuple,
                    tol: Optional[Num] = None) -> DeterminacyCheck:
    """Dispatch on the problem's mode."""
    return _check(problem, Y, z, tol)


def product_closure(make_problem: Callable[[Point], WitnessProblem],
                    seed1: Iterable[Point], seed2: Iterable[Point], *,
                    eps: Num = 0, cap: int = 1, max_depth: Optional[int] = None,
                    product_fn: Optional[Callable[[Point, Point], Num]] = None,
                    second_space: Optional[MetricSpace] = None,
                    lipschitz_k: Optional[Num] = None,
                    spot_budget: int = 128,
                    strict_empty: bool = False) -> tuple[GeneratedSubspace, tuple[Point, ...]]:
    """Closure in the first factor under the operators of every second-factor seed.

    Returns (Y1, Y2) with Y2 the sorted second seed and Y1 closed under the
    witness operator of the score slice at every y in Y2.  When lipschitz_k
    is given together with product_fn and second_space, the k-Lipschitz bound
    in the second variable is spot-checked first by lipschitz_second_witness
    over the first problem's space and second_space, at most spot_budget
    triples, raising LipschitzViolation naming the witness triple on failure.
    """
    Y2 = sort_points(seed2)
    if not Y2:
        raise ValueError("second seed must be nonempty")
    if lipschitz_k is not None and (product_fn is None or second_space is None):
        raise ValueError("lipschitz spot-check needs product_fn and second_space")
    problems = [make_problem(y) for y in Y2]
    if lipschitz_k is not None:
        spot_check_lipschitz_second(product_fn, problems[0].space, second_space,
                                    lipschitz_k, spot_budget)
    result = _closure(problems, seed1, eps=eps, cap=cap, max_depth=max_depth,
                      strict_empty=strict_empty)
    return result, Y2


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


def spot_check_lipschitz_second(f2: Callable[[Point, Point], Num],
                                space1: MetricSpace, space2: MetricSpace, k: Num,
                                budget: int) -> None:
    """Raise LipschitzViolation naming the first witness triple within budget."""
    witness = lipschitz_second_witness(f2, space1, space2, k, budget)
    if witness is not None:
        wx, wy1, wy2 = witness
        raise LipschitzViolation(
            f"bound k={fmt(k)} fails at x={wx.id}, y1={wy1.id}, y2={wy2.id}")


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
