"""Randomized verification suites with replayable failure witnesses.

Ten named suites generate random finite spaces and functions, build witness
closures, and verify the full-vs-restricted identities exhaustively over
every center and truncation parameter.  Instance generation is keyed by
(suite name, seed, index) through string-seeded RNGs, so reports are
deterministic; every failing check is dumped with enough detail (space,
function table, truncation, Y, z) to replay it verbatim.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass, field
from fractions import Fraction
from random import Random
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from .errors import EmptyRegion, UnknownSuite
from .extreal import POS_INF, Num, close, fmt, is_finite, parse
from .functionals import (
    FunctionOracle,
    ScaleGrid,
    ball_pairs_problem,
    continuity_check,
    level_grid,
    lip_local_sup,
    lip_modulus,
    liminf_at,
    limsup_at,
    partial_slope,
    punctured_ball_problem,
    radius_truncation,
    shell_truncation,
    slope_at,
    torus_slope_problem,
    torus_sup,
    verify_lipschitz_second,
)
from .scheme import (
    DeterminacyCheck,
    WitnessProblem,
    check_reduction,
    check_sweep,
    closure_iterate,
    fmt_param,
    intersect_problems,
    product_closure,
    sort_points,
)
from .spaces import (
    FiniteMetricSpace,
    LazyMetricSpace,
    Point,
    space_from_descriptor,
    space_to_descriptor,
)

# ---------------------------------------------------------------------------
# Random instances


def _ids(n: int) -> list[str]:
    width = max(2, len(str(n - 1)))
    return [f"p{i:0{width}d}" for i in range(n)]


def _shortest_path_complete(mat: list[list[int]]) -> list[list[int]]:
    d = np.array(mat, dtype=np.int64)
    for k in range(len(mat)):
        np.minimum(d, d[:, k : k + 1] + d[k : k + 1, :], out=d)
    return [[int(v) for v in row] for row in d]


def random_finite_metric(n: int, seed, method: str = "shortest-path", *,
                         dim: int = 1, weights: tuple[int, int] = (1, 8)) -> FiniteMetricSpace:
    """A random n-point metric space.

    method "euclidean": distinct rational points on a line (dim=1, exact
    half-integer coordinates) or an integer grid (dim=2, float distances).
    method "shortest-path": a random symmetric integer matrix repaired into a
    metric by all-pairs shortest paths; few distinct distances, all exact.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    rng = Random(f"space:{method}:{dim}:{n}:{seed}")
    ids = _ids(n)
    if method == "euclidean":
        if dim == 1:
            # 70% occupancy keeps the distinct-distance count near n
            raw = rng.sample(range(0, max(n + n // 2 + 2, 4)), n)
            pts = [Point(pid, (Fraction(v, 2),)) for pid, v in zip(ids, raw)]
        elif dim == 2:
            side = int(2.5 * math.sqrt(n)) + 2
            cells = rng.sample([(a, b) for a in range(side) for b in range(side)], n)
            pts = [Point(pid, (a, b)) for pid, (a, b) in zip(ids, cells)]
        else:
            raise ValueError("dim must be 1 or 2")
        return FiniteMetricSpace.from_coords(pts)
    if method == "shortest-path":
        lo, hi = weights
        mat = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                mat[i][j] = mat[j][i] = rng.randint(lo, hi)
        mat = _shortest_path_complete(mat)
        return FiniteMetricSpace([Point(pid) for pid in ids], mat, metric_name="matrix")
    raise ValueError(f"unknown method {method!r}")


def random_table_function(space: FiniteMetricSpace, seed, *,
                          inf_share: float = 0.0,
                          denominators: Sequence[int] = (1, 2, 4)) -> FunctionOracle:
    """Random proper function: rational values in [-10, 10], optional +inf set."""
    rng = Random(f"fn:{seed}")
    values: dict = {}
    for p in space.points:
        if inf_share and rng.random() < inf_share:
            values[p.id] = POS_INF
        else:
            den = rng.choice(list(denominators))
            values[p.id] = Fraction(rng.randint(-10 * den, 10 * den), den)
    if all(not is_finite(v) for v in values.values()):
        values[space.points[0].id] = Fraction(0)
    return FunctionOracle.from_table(values, name=f"table:{seed}")


def step_function(space: FiniteMetricSpace, seed) -> FunctionOracle:
    """A two-level step along the first coordinate, threshold at a point."""
    rng = Random(f"step:{seed}")
    cut = rng.choice(space.points).coords[0]
    lo = Fraction(rng.randint(-5, 0))
    hi = lo + rng.randint(1, 6)
    return FunctionOracle.from_coords(
        lambda c, cut=cut, lo=lo, hi=hi: hi if c[0] >= cut else lo,
        name=f"step:{seed}")


def dyadic_interval_space() -> LazyMetricSpace:
    """Lazy countable space: dyadic rationals in [0, 1] under |a - b|."""

    def point_at(i: int) -> Point:
        if i == 0:
            v = Fraction(0)
        elif i == 1:
            v = Fraction(1)
        else:
            idx, level = i - 2, 1
            while idx >= 2 ** (level - 1):
                idx -= 2 ** (level - 1)
                level += 1
            v = Fraction(2 * idx + 1, 2 ** level)
        return Point(f"q{i:06d}", (v,))

    return LazyMetricSpace(point_at, lambda a, b: abs(a.coords[0] - b.coords[0]),
                           name="dyadic-interval")


# ---------------------------------------------------------------------------
# Brute-force oracle


def brute_force_optimum(problem: WitnessProblem, z: tuple,
                        restrict: Optional[Iterable[Point]] = None) -> Num:
    """Optimum of the score over all |X|^l tuples filtered by membership.

    Independent of the problem's region enumeration: scans the full tuple
    product and asks the membership predicate.  Raises EmptyRegion when no
    tuple qualifies.
    """
    x, p = z
    pool = sort_points(restrict) if restrict is not None else problem.space.enumerate_points()
    best: Optional[Num] = None
    for u in itertools.product(pool, repeat=problem.arity):
        if not problem.member(x, p, u):
            continue
        sc = problem.score(z, u)
        if best is None:
            best = sc
        elif problem.mode == "sup":
            if sc > best:
                best = sc
        elif sc < best:
            best = sc
    if best is None:
        raise EmptyRegion(f"no tuple qualifies at x={x.id}, p={fmt_param(p)}")
    return best


# ---------------------------------------------------------------------------
# Suite plumbing


@dataclass
class SuiteConfig:
    """Knobs shared by every suite; None fields fall back to suite defaults."""

    instances: Optional[int] = None
    sizes: Optional[tuple[int, ...]] = None
    seed: int = 0
    eps: Num = 0
    cap: int = 1
    max_depth: Optional[int] = None
    tolerance: Optional[Num] = None  # None: 0 for exact scores, 1e-12 otherwise
    q_density: Optional[int] = None
    shells_override: Optional[tuple] = None
    inf_share: float = 0.3

    def __post_init__(self):
        if self.instances is not None and self.instances < 1:
            raise ValueError("instances must be at least 1")
        if self.eps < 0:
            raise ValueError("eps must be nonnegative")
        if self.cap < 1:
            raise ValueError("cap must be at least 1")
        if self.tolerance is not None and self.tolerance < 0:
            raise ValueError("tolerance must be nonnegative")


@dataclass
class SuiteReport:
    """Aggregated verdicts plus replayable dumps for every failure.

    passes/fails count instances (they always sum to `instances`); the
    checks_* fields count individual full-vs-restricted comparisons.
    """

    name: str
    seed: int
    instances: int = 0
    passes: int = 0
    fails: int = 0
    checks_passed: int = 0
    checks_failed: int = 0
    checks_skipped: int = 0
    notes: dict = field(default_factory=dict)
    failures: list = field(default_factory=list)
    runtime_seconds: float = 0.0  # stdout only; kept out of the JSON form
    _mark: int = 0

    MAX_DUMPS = 20

    @property
    def ok(self) -> bool:
        return self.fails == 0 and self.checks_failed == 0

    def begin_instance(self) -> None:
        self._mark = self.checks_failed

    def end_instance(self) -> None:
        self.instances += 1
        if self.checks_failed == self._mark:
            self.passes += 1
        else:
            self.fails += 1

    def check_pass(self) -> None:
        self.checks_passed += 1

    def check_skip(self, note: Optional[str] = None) -> None:
        self.checks_skipped += 1
        if note:
            self.note(note)

    def fail(self, dump: dict) -> None:
        self.checks_failed += 1
        if len(self.failures) < self.MAX_DUMPS:
            self.failures.append(dump)

    def tally(self, check: DeterminacyCheck, dump: Optional[Callable[[], dict]] = None) -> None:
        if check.verdict == "pass":
            self.checks_passed += 1
        elif check.verdict == "fail":
            self.fail(dump() if dump is not None else {"kind": "check-failed"})
        else:
            self.checks_skipped += 1
            self.note("skipped_empty_region")

    def note(self, key: str, delta: int = 1) -> None:
        self.notes[key] = self.notes.get(key, 0) + delta

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "seed": self.seed,
            "instances": self.instances,
            "passes": self.passes,
            "fails": self.fails,
            "checks": {
                "passed": self.checks_passed,
                "failed": self.checks_failed,
                "skipped": self.checks_skipped,
            },
            "notes": dict(sorted(self.notes.items())),
            "failures": self.failures,
        }

    def summary(self) -> str:
        verdict = "OK" if self.ok else "FAIL"
        return (f"{self.name}: {verdict} | instances {self.passes}/{self.instances} pass"
                f" | checks {self.checks_passed} pass, {self.checks_failed} fail,"
                f" {self.checks_skipped} skipped | {self.runtime_seconds:.1f}s")


def _plan_sizes(config: SuiteConfig, default_count: int, pool: Sequence[int],
                big: Sequence[int] = ()) -> list[int]:
    count = config.instances if config.instances is not None else default_count
    if config.sizes:
        pool, big = config.sizes, ()
    sizes = list(big)[:count]
    i = 0
    while len(sizes) < count:
        sizes.append(pool[i % len(pool)])
        i += 1
    return sizes


def _method_for(i: int, n: int) -> tuple[str, int]:
    if n > 20:
        return "shortest-path", 1
    pick = i % 3
    if pick == 0:
        return "euclidean", 1
    if pick == 1:
        return "shortest-path", 1
    return ("euclidean", 2) if n <= 12 else ("euclidean", 1)


def _family_of(problem: WitnessProblem) -> str:
    return problem.name.split("[", 1)[0]


def witness_dump(space: FiniteMetricSpace, f: FunctionOracle,
                 problem: WitnessProblem, Y: Iterable[Point],
                 check: DeterminacyCheck) -> dict:
    """Everything needed to replay one failed check byte-for-byte."""
    return {
        "space": space_to_descriptor(space),
        "function": f.to_descriptor(space),
        "problem": {
            "family": _family_of(problem),
            "mode": problem.mode,
            "truncation": [fmt_param(p) for p in problem.params.truncation],
        },
        "Y": [p.id for p in sort_points(Y)],
        "z": {"x": check.x.id, "param": fmt_param(check.param)},
        "tolerance": fmt(check.tolerance),
        "lhs": None if check.lhs is None else fmt(check.lhs),
        "rhs": None if check.rhs is None else fmt(check.rhs),
        "verdict": check.verdict,
    }


def _decode_param(raw):
    if isinstance(raw, list):
        return tuple(parse(v) for v in raw)
    return parse(raw)


def replay_check(dump: dict) -> DeterminacyCheck:
    """Rebuild the instance from a failure dump and rerun the exact check."""
    from .functionals import PROBLEM_FAMILIES

    space = space_from_descriptor(dump["space"])
    f = FunctionOracle.from_descriptor(dump["function"])
    prob = dump["problem"]
    truncation = tuple(_decode_param(p) for p in prob["truncation"])
    problem = PROBLEM_FAMILIES[prob["family"]](
        space, f, mode=prob["mode"], truncation=truncation)
    Y = [space.point(pid) for pid in dump["Y"]]
    z = (space.point(dump["z"]["x"]), _decode_param(dump["z"]["param"]))
    return check_reduction(problem, Y, z, tol=parse(dump["tolerance"]))


def _check_all(problem: WitnessProblem, Y: Sequence[Point], report: SuiteReport,
               space: FiniteMetricSpace, f: FunctionOracle, tol: Optional[Num],
               sample: Optional[tuple] = None) -> Optional[DeterminacyCheck]:
    """Run the full-vs-restricted check at every (center, parameter).

    Returns the check made at sample = (x, p), if one is given.
    """
    picked = None
    for chk in check_sweep(problem, Y, tol):
        report.tally(chk, lambda c=chk: witness_dump(space, f, problem, Y, c))
        if sample is not None and chk.x is sample[0] and chk.param is sample[1]:
            picked = chk
    return picked


_SMALL = (5, 6, 8, 9, 10, 12, 14, 16, 18, 20)


def _make_problems(space: FiniteMetricSpace, f: FunctionOracle, mode: str,
                   config: SuiteConfig) -> list[WitnessProblem]:
    radii = radius_truncation(space, config.q_density)
    shells = (config.shells_override
              if config.shells_override is not None
              else shell_truncation(space, level_grid(f, space, "sample"),
                                    config.q_density))
    return [
        punctured_ball_problem(space, f, mode, truncation=radii),
        ball_pairs_problem(space, f, mode, truncation=radii),
        torus_slope_problem(space, f, mode, truncation=shells),
    ]


def _closure_suite(name: str, config: SuiteConfig, mode: str) -> SuiteReport:
    report = SuiteReport(name=name, seed=config.seed)
    sizes = _plan_sizes(config, 102, _SMALL, big=(100, 64, 50, 40, 32, 25))
    for i, n in enumerate(sizes):
        report.begin_instance()
        method, dim = _method_for(i, n)
        space = random_finite_metric(n, f"{name}:{config.seed}:{i}", method, dim=dim)
        inf_share = config.inf_share if (mode == "sup" and i % 4 == 2) else 0.0
        f = random_table_function(space, f"{name}:{config.seed}:{i}", inf_share=inf_share)
        rng = Random(f"pick:{name}:{config.seed}:{i}")
        seed_pt = rng.choice(space.points)
        for problem in _make_problems(space, f, mode, config):
            gen = closure_iterate(problem, [seed_pt], eps=config.eps, cap=config.cap,
                                  max_depth=config.max_depth)
            if not gen.fixed_point:
                report.fail({"kind": "no-fixed-point", "instance": i,
                             "problem": problem.name,
                             "space": space_to_descriptor(space)})
                continue
            Y = gen.union
            # dual-route spot check: the scan-all-tuples oracle must agree
            # with the sweep's optimum on a sampled parameter
            x = rng.choice(Y)
            p = rng.choice(problem.params.truncation)
            chk = _check_all(problem, Y, report, space, f, config.tolerance, sample=(x, p))
            if chk.verdict != "skipped-empty-region":
                oracle = brute_force_optimum(problem, (x, p))
                if not close(oracle, chk.lhs, chk.tolerance):
                    report.fail(witness_dump(space, f, problem, Y, chk)
                                | {"kind": "oracle-mismatch", "oracle": fmt(oracle)})
                else:
                    report.note("oracle_crosschecks")
        report.end_instance()
    return report


def _suite_sup(name: str, config: SuiteConfig) -> SuiteReport:
    return _closure_suite(name, config, "sup")


def _suite_inf(name: str, config: SuiteConfig) -> SuiteReport:
    return _closure_suite(name, config, "inf")


def _suite_intersection(name: str, config: SuiteConfig) -> SuiteReport:
    from .families import family_for, intersect, is_member

    report = SuiteReport(name=name, seed=config.seed)
    sizes = _plan_sizes(config, 52, (5, 6, 8, 10, 12, 14, 16))
    for i, n in enumerate(sizes):
        report.begin_instance()
        method, dim = _method_for(i, n)
        space = random_finite_metric(n, f"{name}:{config.seed}:{i}", method, dim=dim)
        f = random_table_function(space, f"{name}:{config.seed}:{i}")
        radii = radius_truncation(space, config.q_density)
        shells = shell_truncation(space, level_grid(f, space, "sample"), config.q_density)
        prob_pairs = ball_pairs_problem(space, f, "sup", truncation=radii)
        prob_torus = torus_slope_problem(space, f, "sup", truncation=shells)
        fam = intersect([family_for([prob_pairs], config.eps, config.cap),
                         family_for([prob_torus], config.eps, config.cap)])
        rng = Random(f"pick:{name}:{config.seed}:{i}")
        seed_pt = rng.choice(space.points)
        gen = intersect_problems([prob_pairs, prob_torus], [seed_pt],
                                 eps=config.eps, cap=config.cap,
                                 max_depth=config.max_depth)
        if not gen.fixed_point:
            report.fail({"kind": "no-fixed-point", "instance": i,
                         "space": space_to_descriptor(space)})
            report.end_instance()
            continue
        Y = gen.union
        for handle, label in ((family_for([prob_pairs], config.eps, config.cap), "pairs"),
                              (family_for([prob_torus], config.eps, config.cap), "torus"),
                              (fam, "intersection")):
            if is_member(handle, Y):
                report.check_pass()
            else:
                report.fail({"kind": f"not-a-member:{label}", "instance": i,
                             "space": space_to_descriptor(space),
                             "Y": [p.id for p in Y]})
        for problem in (prob_pairs, prob_torus):
            _check_all(problem, Y, report, space, f, config.tolerance)
        report.end_instance()
    return report


def _suite_product_closure(name: str, config: SuiteConfig) -> SuiteReport:
    report = SuiteReport(name=name, seed=config.seed)
    sizes = _plan_sizes(config, 24, (4, 5, 6, 7, 8, 9, 10))
    for i, n1 in enumerate(sizes):
        report.begin_instance()
        n2 = 3 + (i % 5)
        s1 = random_finite_metric(n1, f"{name}:a:{config.seed}:{i}", "euclidean", dim=1)
        s2 = random_finite_metric(n2, f"{name}:b:{config.seed}:{i}", "euclidean", dim=1)
        rng = Random(f"pick:{name}:{config.seed}:{i}")
        g = random_table_function(s1, f"{name}:g:{config.seed}:{i}")
        y0 = rng.choice(s2.points)
        c = Fraction(rng.randint(0, 3), 2)

        def f2(x: Point, y: Point, g=g, y0=y0, c=c, s2=s2) -> Num:
            return g.value(x) + c * s2.distance(y, y0)

        def make_problem(y: Point, s1=s1, f2=f2) -> WitnessProblem:
            slice_f = FunctionOracle(f"slice@{y.id}", lambda u, y=y: f2(u, y))
            return torus_slope_problem(s1, slice_f, "sup", t_mode="sample")

        seed1 = [rng.choice(s1.points)]
        seed2 = sort_points(rng.sample(list(s2.points), min(3, n2)))
        gen, Y2 = product_closure(make_problem, seed1, seed2, eps=config.eps,
                                  cap=config.cap, max_depth=config.max_depth,
                                  product_fn=f2, second_space=s2,
                                  lipschitz_k=c)
        if not gen.fixed_point:
            report.fail({"kind": "no-fixed-point", "instance": i})
            report.end_instance()
            continue
        Y1 = gen.union
        for y in Y2:
            problem = make_problem(y)
            slice_f = FunctionOracle(f"slice@{y.id}", lambda u, y=y: f2(u, y))
            _check_all(problem, Y1, report, s1, slice_f, config.tolerance)
        report.end_instance()
    return report


def _suite_limits(name: str, config: SuiteConfig) -> SuiteReport:
    report = SuiteReport(name=name, seed=config.seed)
    sizes = _plan_sizes(config, 102, _SMALL, big=(40, 30, 25))
    for i, n in enumerate(sizes):
        report.begin_instance()
        use_step = i % 3 == 0
        method, dim = ("euclidean", 1) if use_step else _method_for(i, n)
        space = random_finite_metric(n, f"{name}:{config.seed}:{i}", method, dim=dim)
        if use_step:
            f = step_function(space, f"{name}:{config.seed}:{i}")
            report.note("step_function_instances")
        else:
            f = random_table_function(space, f"{name}:{config.seed}:{i}")
        radii = radius_truncation(space, config.q_density)
        probs = [punctured_ball_problem(space, f, "sup", truncation=radii),
                 punctured_ball_problem(space, f, "inf", truncation=radii)]
        rng = Random(f"pick:{name}:{config.seed}:{i}")
        gen = intersect_problems(probs, [rng.choice(space.points)],
                                 eps=config.eps, cap=config.cap,
                                 max_depth=config.max_depth)
        if not gen.fixed_point:
            report.fail({"kind": "no-fixed-point", "instance": i})
            report.end_instance()
            continue
        Y = gen.union
        grid = ScaleGrid(radii=radii)
        tol = config.tolerance if config.tolerance is not None else 0
        for x in Y:
            if len(space) == 1:
                report.check_skip("skipped_isolated")
                continue
            full_lo = liminf_at(f, space, x, grid)
            full_hi = limsup_at(f, space, x, grid)
            rest_lo = liminf_at(f, space, x, grid, Y=Y)
            rest_hi = limsup_at(f, space, x, grid, Y=Y)
            full_cont = continuity_check(f, space, x, grid, tol=tol)
            rest_cont = continuity_check(f, space, x, grid, Y=Y, tol=tol)
            if (close(full_lo, rest_lo, tol) and close(full_hi, rest_hi, tol)
                    and full_cont == rest_cont):
                report.check_pass()
            else:
                report.fail({
                    "kind": "limit-mismatch", "instance": i, "x": x.id,
                    "space": space_to_descriptor(space),
                    "function": f.to_descriptor(space),
                    "Y": [p.id for p in Y],
                    "liminf": [fmt(full_lo), fmt(rest_lo)],
                    "limsup": [fmt(full_hi), fmt(rest_hi)],
                    "continuity": [full_cont, rest_cont],
                })
        report.end_instance()
    return report


def _lip_instances(name: str, config: SuiteConfig):
    sizes = _plan_sizes(config, 102, _SMALL, big=(60, 50, 40, 30, 25))
    for i, n in enumerate(sizes):
        method, dim = _method_for(i, n)
        space = random_finite_metric(n, f"{name}:{config.seed}:{i}", method, dim=dim)
        f = random_table_function(space, f"{name}:{config.seed}:{i}")
        radii = radius_truncation(space, config.q_density)
        problem = ball_pairs_problem(space, f, "sup", truncation=radii)
        rng = Random(f"pick:{name}:{config.seed}:{i}")
        gen = closure_iterate(problem, [rng.choice(space.points)], eps=config.eps,
                              cap=config.cap, max_depth=config.max_depth)
        yield i, space, f, radii, gen


def _suite_pair_sup(name: str, config: SuiteConfig) -> SuiteReport:
    report = SuiteReport(name=name, seed=config.seed)
    tol = config.tolerance
    for i, space, f, radii, gen in _lip_instances(name, config):
        report.begin_instance()
        if not gen.fixed_point:
            report.fail({"kind": "no-fixed-point", "instance": i})
            report.end_instance()
            continue
        Y = gen.union
        use_tol = tol if tol is not None else 0
        for x in Y:
            for r in radii:
                full = lip_local_sup(f, space, x, r)
                rest = lip_local_sup(f, space, x, r, Y=Y)
                if full.pairs == 0 and rest.pairs == 0:
                    report.check_skip("skipped_no_pairs")
                elif close(full.value, rest.value, use_tol):
                    report.check_pass()
                else:
                    report.fail({
                        "kind": "pair-sup-mismatch", "instance": i, "x": x.id,
                        "r": fmt(r), "space": space_to_descriptor(space),
                        "function": f.to_descriptor(space),
                        "Y": [p.id for p in Y],
                        "full": fmt(full.value), "restricted": fmt(rest.value),
                    })
        report.end_instance()
    return report


def _suite_lip_modulus(name: str, config: SuiteConfig) -> SuiteReport:
    report = SuiteReport(name=name, seed=config.seed)
    tol = config.tolerance
    for i, space, f, radii, gen in _lip_instances(name, config):
        report.begin_instance()
        if not gen.fixed_point:
            report.fail({"kind": "no-fixed-point", "instance": i})
            report.end_instance()
            continue
        Y = gen.union
        grid = ScaleGrid(radii=radii)
        use_tol = tol if tol is not None else 0
        for x in Y:
            full = lip_modulus(f, space, x, grid)
            rest = lip_modulus(f, space, x, grid, Y=Y)
            if close(full, rest, use_tol):
                report.check_pass()
            else:
                report.fail({
                    "kind": "modulus-mismatch", "instance": i, "x": x.id,
                    "space": space_to_descriptor(space),
                    "function": f.to_descriptor(space),
                    "Y": [p.id for p in Y],
                    "full": fmt(full), "restricted": fmt(rest),
                })
        report.end_instance()
    return report


def _torus_instances(name: str, config: SuiteConfig, t_mode: str, big=(40, 40, 30, 25)):
    sizes = _plan_sizes(config, 102, (5, 6, 8, 9, 10, 12, 14, 16), big=big)
    for i, n in enumerate(sizes):
        method, dim = _method_for(i, n)
        space = random_finite_metric(n, f"{name}:{config.seed}:{i}", method, dim=dim)
        inf_share = config.inf_share if i % 4 == 1 else 0.0
        f = random_table_function(space, f"{name}:{config.seed}:{i}", inf_share=inf_share)
        shells = (config.shells_override
                  if config.shells_override is not None
                  else shell_truncation(space, level_grid(f, space, t_mode),
                                        config.q_density))
        problem = torus_slope_problem(space, f, "sup", truncation=shells)
        rng = Random(f"pick:{name}:{config.seed}:{i}")
        gen = closure_iterate(problem, [rng.choice(space.points)], eps=config.eps,
                              cap=config.cap, max_depth=config.max_depth)
        yield i, space, f, shells, gen


def _suite_torus_sup(name: str, config: SuiteConfig) -> SuiteReport:
    report = SuiteReport(name=name, seed=config.seed)
    for i, space, f, shells, gen in _torus_instances(name, config, "sample"):
        report.begin_instance()
        if any(not f.is_finite_at(p) for p in space.points):
            report.note("inf_function_instances")
        if not gen.fixed_point:
            report.fail({"kind": "no-fixed-point", "instance": i})
            report.end_instance()
            continue
        Y = gen.union
        use_tol = config.tolerance if config.tolerance is not None else 0
        for x in Y:
            for t, r, s in shells:
                try:
                    full = torus_sup(f, space, x, t, r, s)
                except EmptyRegion:
                    report.check_skip("skipped_empty_shell")
                    continue
                try:
                    rest = torus_sup(f, space, x, t, r, s, Y=Y)
                except EmptyRegion:
                    report.fail({
                        "kind": "restricted-shell-empty", "instance": i,
                        "x": x.id, "param": [fmt(t), fmt(r), fmt(s)],
                        "space": space_to_descriptor(space),
                        "Y": [p.id for p in Y]})
                    continue
                if close(full, rest, use_tol):
                    report.check_pass()
                else:
                    report.fail({
                        "kind": "torus-sup-mismatch", "instance": i, "x": x.id,
                        "param": [fmt(t), fmt(r), fmt(s)],
                        "space": space_to_descriptor(space),
                        "function": f.to_descriptor(space),
                        "Y": [p.id for p in Y],
                        "full": fmt(full), "restricted": fmt(rest),
                    })
        report.end_instance()
    return report


def _suite_slope(name: str, config: SuiteConfig) -> SuiteReport:
    report = SuiteReport(name=name, seed=config.seed)
    for i, space, f, shells, gen in _torus_instances(name, config, "full",
                                                     big=(30, 25, 20, 20)):
        report.begin_instance()
        if any(not f.is_finite_at(p) for p in space.points):
            report.note("inf_function_instances")
        if not gen.fixed_point:
            report.fail({"kind": "no-fixed-point", "instance": i})
            report.end_instance()
            continue
        Y = gen.union
        grid = ScaleGrid(shells=tuple(dict.fromkeys((r, s) for _, r, s in shells)))
        use_tol = config.tolerance if config.tolerance is not None else 0
        for x in Y:
            if len(space) == 1:
                report.check_skip("skipped_isolated")
                continue
            if not f.is_finite_at(x):
                report.note("convention_branch_checks")
            full = slope_at(f, space, x, grid)
            rest = slope_at(f, space, x, grid, Y=Y)
            if close(full, rest, use_tol):
                report.check_pass()
            else:
                report.fail({
                    "kind": "slope-mismatch", "instance": i, "x": x.id,
                    "space": space_to_descriptor(space),
                    "function": f.to_descriptor(space),
                    "Y": [p.id for p in Y],
                    "full": fmt(full), "restricted": fmt(rest),
                })
        report.end_instance()
    return report


def _suite_partial_slope(name: str, config: SuiteConfig) -> SuiteReport:
    report = SuiteReport(name=name, seed=config.seed)
    sizes = _plan_sizes(config, 32, (4, 5, 6, 8, 10, 12), big=(20, 16))
    for i, n1 in enumerate(sizes):
        report.begin_instance()
        n2 = 3 + (i % 6)
        s1 = random_finite_metric(n1, f"{name}:a:{config.seed}:{i}", "euclidean", dim=1)
        s2 = random_finite_metric(n2, f"{name}:b:{config.seed}:{i}", "euclidean", dim=1)
        rng = Random(f"pick:{name}:{config.seed}:{i}")
        g = random_table_function(s1, f"{name}:g:{config.seed}:{i}")
        y0 = rng.choice(s2.points)
        k = Fraction(rng.randint(1, 4), 2)
        coeffs = {x.id: Fraction(rng.randint(-2 * k.numerator, 2 * k.numerator),
                                 2 * k.denominator) for x in s1.points}

        def f2(x: Point, y: Point, g=g, y0=y0, coeffs=coeffs, s2=s2) -> Num:
            return g.value(x) + coeffs[x.id] * s2.distance(y, y0)

        if not verify_lipschitz_second(f2, s1, s2, k):
            report.fail({"kind": "valid-instance-rejected", "instance": i})
            report.end_instance()
            continue
        report.note("lipschitz_verified")

        def make_problem(y: Point, s1=s1, f2=f2) -> WitnessProblem:
            slice_f = FunctionOracle(f"slice@{y.id}", lambda u, y=y: f2(u, y))
            return torus_slope_problem(s1, slice_f, "sup", t_mode="full")

        seed1 = [rng.choice(s1.points)]
        seed2 = sort_points(rng.sample(list(s2.points), min(3, n2)))
        gen, Y2 = product_closure(make_problem, seed1, seed2, eps=config.eps,
                                  cap=config.cap, max_depth=config.max_depth,
                                  product_fn=f2, second_space=s2, lipschitz_k=k)
        if not gen.fixed_point:
            report.fail({"kind": "no-fixed-point", "instance": i})
            report.end_instance()
            continue
        Y1 = gen.union
        use_tol = config.tolerance if config.tolerance is not None else 0
        for y in Y2:
            problem = make_problem(y)
            grid = ScaleGrid(shells=tuple(dict.fromkeys(
                (r, s) for _, r, s in problem.params.truncation)))
            for x in Y1:
                if len(s1) == 1:
                    report.check_skip("skipped_isolated")
                    continue
                full = partial_slope(f2, s1, x, y, grid=grid)
                rest = partial_slope(f2, s1, x, y, grid=grid, Y1=Y1)
                if close(full, rest, use_tol):
                    report.check_pass()
                else:
                    report.fail({
                        "kind": "partial-slope-mismatch", "instance": i,
                        "x": x.id, "y": y.id,
                        "space": space_to_descriptor(s1),
                        "Y1": [p.id for p in Y1],
                        "full": fmt(full), "restricted": fmt(rest),
                    })
        report.end_instance()

    # adversarial instances: a planted bump must be rejected
    adv = max(10, (config.instances if config.instances is not None else 32) // 3)
    for j in range(adv):
        report.begin_instance()
        s1 = random_finite_metric(4 + j % 4, f"{name}:adv-a:{config.seed}:{j}",
                                  "euclidean", dim=1)
        s2 = random_finite_metric(3 + j % 4, f"{name}:adv-b:{config.seed}:{j}",
                                  "euclidean", dim=1)
        rng = Random(f"adv:{name}:{config.seed}:{j}")
        g = random_table_function(s1, f"{name}:adv-g:{config.seed}:{j}")
        y0 = s2.points[0]
        k = Fraction(rng.randint(1, 4), 2)
        bad_x = rng.choice(s1.points)
        bad_y = rng.choice([p for p in s2.points if p != y0])
        # any scanned pair (bad_y, y) has gap >= bump - k*diam; keep that > k*diam
        bump = 2 * k * (s2.diameter() + 1) + 1

        def f2_bad(x: Point, y: Point, g=g, y0=y0, k=k, s2=s2,
                   bad_x=bad_x, bad_y=bad_y, bump=bump) -> Num:
            base = g.value(x) + k * s2.distance(y, y0)
            if x == bad_x and y == bad_y:
                base += bump
            return base

        if verify_lipschitz_second(f2_bad, s1, s2, k):
            report.fail({"kind": "adversarial-accepted", "instance": j})
        else:
            report.note("adversarial_rejected")
            report.check_pass()
        report.end_instance()
    return report


SUITES: dict[str, tuple[Callable[[str, SuiteConfig], SuiteReport], str]] = {
    "prop-1.1": (_suite_intersection,
                 "intersection of generated families stays cofinal and checkable"),
    "thm-2.1": (_suite_sup,
                "sup-mode closure determinacy over the shipped problem families"),
    "thm-2.2": (_suite_inf,
                "inf-mode closure determinacy with argmin witnesses"),
    "thm-2.3": (_suite_product_closure,
                "product closure: slice identities at every sampled second factor"),
    "thm-3.1": (_suite_limits,
                "grid liminf/limsup and continuity verdicts survive restriction"),
    "prop-3.2": (_suite_pair_sup,
                 "pairwise sup over balls survives restriction at every radius"),
    "thm-3.3": (_suite_lip_modulus,
                "local Lipschitz modulus survives restriction"),
    "prop-4.1": (_suite_torus_sup,
                 "shell descent supremum survives restriction at every parameter"),
    "thm-4.2": (_suite_slope,
                "descent slope survives restriction (convention branch logged)"),
    "thm-4.3": (_suite_partial_slope,
                "partial slopes on products; planted Lipschitz violations rejected"),
}


def run_suite(name: str, config: Optional[SuiteConfig] = None) -> SuiteReport:
    """Run one named suite; deterministic for a fixed config."""
    if name not in SUITES:
        raise UnknownSuite(f"unknown suite {name!r}; known: {sorted(SUITES)}")
    cfg = config if config is not None else SuiteConfig()
    runner, _ = SUITES[name]
    t0 = time.perf_counter()
    report = runner(name, cfg)
    report.runtime_seconds = time.perf_counter() - t0
    return report
