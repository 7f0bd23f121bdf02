"""Randomized verification suites with replayable failure witnesses.

Ten named suites generate random finite spaces and functions, close a seed
under optimal witnesses, and check that each formula over the whole space
equals the same formula over the closed set at every center and truncation
parameter.  A suite is a declarative Spec: a size plan and an instance
builder keyed by (suite name, seed, index) through string-seeded RNGs, which
returns the instance's closures and named comparisons.  One runner executes
every spec, so reports are deterministic, and dumps every failure in one
schema that `replay_check` reruns.
"""

from __future__ import annotations

import functools
import itertools
import math
import time
from dataclasses import dataclass, field, replace
from fractions import Fraction
from random import Random
from typing import Callable, Iterable, NamedTuple, Optional, Sequence

import numpy as np

from . import families
from .errors import EmptyRegion, IsolatedPoint, UnknownSuite
from .extreal import POS_INF, Num, fmt, is_finite, parse
from .functionals import (
    PROBLEM_FAMILIES,
    FunctionOracle,
    ball_pairs_problem,
    continuity_check,  # kept bound here, as lip_local_sup
    continuous,
    level_grid,
    lip_local_sup,  # kept bound here: bench/tracing.py patches the harness's names
    lip_modulus,
    liminf_at,
    limsup_at,
    partial_slope,
    punctured_ball_problem,
    radius_truncation,
    shell_truncation,
    slice_oracle,
    slope_at,
    torus_slope_problem,
    torus_sup,  # kept bound here, as lip_local_sup
    verify_lipschitz_second,
)
from .scheme import (
    DeterminacyCheck,
    GeneratedSubspace,
    WitnessProblem,
    agree,
    check_reduction,
    closure_iterate,
    fmt_param,
    intersect_problems,
    product_closure,
    sort_points,
    sweep_tally,
    validate_selection,
    validate_tolerance,
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
                         dim: int = 1) -> FiniteMetricSpace:
    """A random n-point metric space.

    method "euclidean": distinct rational points on a line (dim=1, exact
    half-integer coordinates) or an integer grid (dim=2, float distances).
    method "shortest-path": a random symmetric matrix of weights 1..8 repaired
    into a metric by all-pairs shortest paths; few distinct distances, all exact.
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
        mat = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                mat[i][j] = mat[j][i] = rng.randint(1, 8)
        mat = _shortest_path_complete(mat)
        return FiniteMetricSpace([Point(pid) for pid in ids], mat, metric_name="matrix")
    raise ValueError(f"unknown method {method!r}")


def random_table_function(space: FiniteMetricSpace, seed, *,
                          inf_share: float = 0.0) -> FunctionOracle:
    """Random proper function: values in [-10, 10] over denominators 1, 2 or 4,
    optional +inf set."""
    rng = Random(f"fn:{seed}")
    values: dict = {}
    for p in space.points:
        if inf_share and rng.random() < inf_share:
            values[p.id] = POS_INF
        else:
            den = rng.choice([1, 2, 4])
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
        if best is None or (sc > best if problem.mode == "sup" else sc < best):
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
    # None: closure checks compare at 1e-12 where an optimum is a finite float
    # and at 0 otherwise (resolve_tolerance); formula comparisons compare at 0
    tolerance: Optional[Num] = None
    q_density: Optional[int] = None

    def __post_init__(self):
        if self.instances is not None and self.instances < 1:
            raise ValueError("instances must be at least 1")
        if self.sizes is not None and any(n < 1 for n in self.sizes):
            raise ValueError("sizes must be at least 1")
        validate_selection(self.eps, self.cap)
        validate_tolerance(self.tolerance)
        if self.q_density is not None and self.q_density < 2:
            raise ValueError("q_density must be an integer >= 2")


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

    def check_pass(self, count: int = 1) -> None:
        self.checks_passed += count

    def check_skip(self, note: Optional[str] = None, count: int = 1) -> None:
        self.checks_skipped += count
        if note and count:
            self.note(note, count)

    def fail(self, dump: dict) -> None:
        self.checks_failed += 1
        if len(self.failures) < self.MAX_DUMPS:
            self.failures.append(dump)

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


# ---------------------------------------------------------------------------
# Suite specs and the one runner


class Comparison(NamedTuple):
    """A formula over the whole space against the same formula over Y.

    At each tuple from `points(Y)`, whose entries `keys` names, `at(Y, point)`
    returns an outcome: (full, restricted), or a note naming why the point is
    skipped.  A formula that is a family's optimum at every parameter is no
    Comparison: its stage checks the family's problem (Stage.problems).
    """

    name: str
    keys: tuple
    points: Callable
    at: Callable
    counted: bool = True  # a pass adds to checks_passed
    note: Optional[str] = None  # noted on every pass


class Stage(NamedTuple):
    """A closure and what must hold over it: the comparisons, then each
    (function, problem) from `problems()` checked at every (x in Y, parameter)
    and, with `oracle`, by brute force at one drawn (x, p).  A parameter whose
    region is empty is skipped under `skip_note`.  A stage without a closure
    gates the instance: its failure ends it."""

    label: str
    close: Optional[Callable[[], GeneratedSubspace]]
    comparisons: tuple = ()
    problems: Callable = tuple
    oracle: bool = False
    skip_note: str = "skipped_empty_region"


class Spec(NamedTuple):
    """A suite: its size plan and the builder of an instance's stages."""

    count: int
    pool: tuple
    big: tuple
    build: Callable  # Instance -> list[Stage]
    extra: Callable = lambda cfg: 0  # instances after the plan, built with n = None


class Instance:
    """One instance of a run: RNG keys, spaces, notes and the suite tolerance."""

    def __init__(self, name: str, cfg: SuiteConfig, index: int, sizes: Sequence[int]):
        self.name, self.cfg, self.index = name, cfg, index
        self.n = sizes[index] if index < len(sizes) else None
        self.local = index if self.n is not None else index - len(sizes)
        self.rng = Random(f"pick:{name}:{cfg.seed}:{index}")
        # formulas compare at 0 when unset; sweeps pass cfg.tolerance on, and
        # sweep_tally resolves None from the two optima
        self.tol = 0 if cfg.tolerance is None else cfg.tolerance
        self.opts = {"eps": cfg.eps, "cap": cfg.cap, "max_depth": cfg.max_depth}
        self.notes: list[str] = []
        self.space = self.second = None

    def key(self, tag: str = "") -> str:
        return f"{self.name}:{tag}{self.cfg.seed}:{self.local}"

    def table(self, inf_share: float = 0.0) -> tuple:
        """A random space, its kind picked by index and size, and a table function."""
        kinds = (("euclidean", 1), ("shortest-path", 1), ("euclidean", 2 if self.n <= 12 else 1))
        method, dim = ("shortest-path", 1) if self.n > 20 else kinds[self.index % 3]
        self.space = random_finite_metric(self.n, self.key(), method, dim=dim)
        return self.space, random_table_function(self.space, self.key(), inf_share=inf_share)

    def shells(self, f: FunctionOracle, t_mode: str) -> tuple:
        return shell_truncation(self.space, level_grid(f, self.space, t_mode),
                                self.cfg.q_density)

    def closing(self, closure: Callable, problems) -> Callable[[], GeneratedSubspace]:
        """Draw the seed point now; close it under the problems when called."""
        seed = [self.rng.choice(self.space.points)]
        return lambda: closure(problems, seed, **self.opts)


def _plan_sizes(config: SuiteConfig, spec: Spec) -> list[int]:
    count = config.instances if config.instances is not None else spec.count
    pool, big = (config.sizes, ()) if config.sizes else (spec.pool, spec.big)
    sizes = list(big)[:count]
    return sizes + [pool[i % len(pool)] for i in range(count - len(sizes))]


def _enc(v):
    if isinstance(v, (tuple, list)):
        return [_enc(u) for u in v]
    return v.id if isinstance(v, Point) else fmt(v)


def _dec(v):
    return tuple(map(_dec, v)) if isinstance(v, list) else v if v is None else parse(v)


def _dump(inst: Instance, comparison: str, at: dict, Y, full, restricted, tol) -> dict:
    return {"suite": inst.name, "seed": inst.cfg.seed, "instance": inst.index,
            "config": {k: _enc(v) for k, v in vars(inst.cfg).items()},
            "comparison": comparison, "at": at,
            "Y": None if Y is None else [p.id for p in sort_points(Y)],
            "full": _enc(full), "restricted": _enc(restricted), "tolerance": fmt(tol),
            "verdict": "fail"}


def _sweep(report: SuiteReport, inst: Instance, stage: Stage, f: FunctionOracle,
           problem: WitnessProblem, Y: Sequence[Point]) -> None:
    """Check the problem at every (x in Y, parameter), then the drawn oracle point."""

    def dump(comparison: str, chk: DeterminacyCheck, restricted) -> dict:
        at = {"x": chk.x.id, "param": fmt_param(chk.param)}
        return (witness_dump(problem.space, f, problem, Y, chk)
                | _dump(inst, comparison, at, Y, chk.lhs, restricted, chk.tolerance))

    drawn = None
    if stage.oracle and problem.params.truncation:
        drawn = (inst.rng.choice(Y), inst.rng.choice(problem.params.truncation))
    passed, skipped, failures, picked = sweep_tally(problem, Y, inst.cfg.tolerance, drawn)
    report.check_pass(passed)
    report.check_skip(stage.skip_note, skipped)
    for chk in failures:
        report.fail(dump("closure-check", chk, chk.rhs))
    if picked is not None and picked.verdict != "skipped-empty-region":
        oracle = brute_force_optimum(problem, drawn)
        if agree(picked.lhs, oracle, picked.tolerance):
            report.note("oracle_crosschecks")
        else:
            report.fail(dump("oracle", picked, oracle))


def _run_stage(report: SuiteReport, inst: Instance, stage: Stage) -> bool:
    """Close, then check; False when a check of the stage failed."""
    mark = report.checks_failed
    Y = None
    if stage.close is not None:
        gen = stage.close()
        if not gen.fixed_point:
            report.fail(_dump(inst, "fixed-point", {"stage": stage.label}, gen.union,
                              None, None, inst.tol))
            return False
        Y = gen.union
    for comp in stage.comparisons:
        for at in comp.points(Y):
            out = comp.at(Y, at)
            if isinstance(out, str):
                report.check_skip(out)
            elif agree(out[0], out[1], inst.tol):
                if comp.counted:
                    report.check_pass()
                if comp.note:
                    report.note(comp.note)
            else:
                report.fail(_dump(inst, comp.name, dict(zip(comp.keys, map(_enc, at))),
                                  Y, out[0], out[1], inst.tol))
    for f, problem in stage.problems():
        _sweep(report, inst, stage, f, problem, Y)
    return report.checks_failed == mark


def _run(name: str, spec: Spec, cfg: SuiteConfig) -> SuiteReport:
    report = SuiteReport(name=name, seed=cfg.seed)
    sizes = _plan_sizes(cfg, spec)
    for i in range(len(sizes) + spec.extra(cfg)):
        report.begin_instance()
        inst = Instance(name, cfg, i, sizes)
        for stage in spec.build(inst):
            if not _run_stage(report, inst, stage) and stage.close is None:
                break
        for key in inst.notes:
            report.note(key)
        report.end_instance()
    return report


class Outcome(NamedTuple):
    """A replayed comparison: its verdict and the two values it compared."""

    verdict: str
    lhs: object
    rhs: object
    tolerance: Num


def replay_check(dump: dict):
    """Rerun the check a failure dump records, from the dump alone.

    A check of a witness problem (a `witness_dump`, or a suite dump of a
    "closure-check" or "oracle" comparison) is rebuilt from its descriptors
    into a DeterminacyCheck, whose rhs for "oracle" is the brute-force
    optimum.  Any other dump rebuilds its suite instance from the suite,
    config and index, reruns its comparison at `at` over the dumped Y (or
    the closure, for "fixed-point"), and returns an Outcome whose verdict is
    "pass", "fail" or the note of a skipped point.
    """
    if "problem" in dump:
        space = space_from_descriptor(dump["space"])
        f = FunctionOracle.from_descriptor(dump["function"])
        prob = dump["problem"]
        problem = PROBLEM_FAMILIES[prob["family"]](
            space, f, mode=prob["mode"], truncation=_dec(prob["truncation"]))
        z = (space.point(dump["z"]["x"]), _dec(dump["z"]["param"]))
        chk = check_reduction(problem, [space.point(pid) for pid in dump["Y"]], z,
                              tol=parse(dump["tolerance"]))
        if dump.get("comparison") != "oracle":
            return chk
        oracle = brute_force_optimum(problem, z)
        return replace(chk, rhs=oracle,
                       verdict="pass" if agree(chk.lhs, oracle, chk.tolerance) else "fail")
    cfg = SuiteConfig(**{k: _dec(v) for k, v in dump["config"].items()})
    spec = SUITES[dump["suite"]][0]
    inst = Instance(dump["suite"], cfg, dump["instance"], _plan_sizes(cfg, spec))
    stages = spec.build(inst)
    Y = None if dump["Y"] is None else [inst.space.point(pid) for pid in dump["Y"]]
    if dump["comparison"] == "fixed-point":
        stage = next(s for s in stages if s.label == dump["at"]["stage"])
        return Outcome("pass" if stage.close().fixed_point else "fail", None, None, inst.tol)
    comp = next(c for s in stages for c in s.comparisons if c.name == dump["comparison"])
    decode = {"x": inst.space.point, "y": lambda v: inst.second.point(v), "family": str}
    at = tuple(decode.get(k, _dec)(dump["at"][k]) for k in comp.keys)
    out = comp.at(Y, at)
    if isinstance(out, str):
        return Outcome(out, None, None, inst.tol)
    return Outcome("pass" if agree(out[0], out[1], inst.tol) else "fail", *out, inst.tol)


# ---------------------------------------------------------------------------
# The ten suites: one instance builder each

INF_SHARE = 0.3  # chance of +inf per value, in the instances that draw some
_SMALL = (5, 6, 8, 9, 10, 12, 14, 16, 18, 20)


def _each(Y):
    return ((x,) for x in Y)


def _sides(space, formula: Callable, Y):
    """(formula(None), formula(Y)), None for Y's side where it raises IsolatedPoint;
    skipped as isolated where the full side does, or space has one point."""
    if len(space) == 1:
        return "skipped_isolated"
    try:
        full = formula(None)
    except IsolatedPoint:
        return "skipped_isolated"
    try:
        return full, formula(Y)
    except IsolatedPoint:
        return full, None


def _closure(mode: str) -> Callable:
    """thm-2.1/2.2: each shipped family closes alone, then is checked and cross-checked."""

    def build(inst: Instance) -> list[Stage]:
        space, f = inst.table(INF_SHARE if mode == "sup" and inst.index % 4 == 2 else 0.0)
        seed = [inst.rng.choice(space.points)]
        radii = radius_truncation(space, inst.cfg.q_density)
        shells = inst.shells(f, "sample")
        return [Stage(p.name, lambda p=p: closure_iterate(p, seed, **inst.opts),
                      problems=lambda p=p: [(f, p)], oracle=True)
                for p in (punctured_ball_problem(space, f, mode, truncation=radii),
                          ball_pairs_problem(space, f, mode, truncation=radii),
                          torus_slope_problem(space, f, mode, truncation=shells))]

    return build


def _intersection(inst: Instance) -> list[Stage]:
    """prop-1.1: closed under two families at once, a member of each and of both."""
    space, f = inst.table()
    eps, cap, q = inst.cfg.eps, inst.cfg.cap, inst.cfg.q_density
    pairs = ball_pairs_problem(space, f, "sup", truncation=radius_truncation(space, q))
    torus = torus_slope_problem(space, f, "sup", truncation=inst.shells(f, "sample"))
    handles = {"pairs": families.family_for([pairs], eps, cap),
               "torus": families.family_for([torus], eps, cap)}
    handles["intersection"] = families.intersect(list(handles.values()))
    member = Comparison("membership", ("family",), lambda Y: [(k,) for k in handles],
                        lambda Y, at: (True, families.is_member(handles[at[0]], Y)))
    return [Stage("closure", inst.closing(intersect_problems, [pairs, torus]), (member,),
                  lambda: [(f, pairs), (f, torus)])]


def _product(inst: Instance, n2: int, coeffs_of: Callable, t_mode: str):
    """f2(x, y) = g(x) + a(x) d(y, y0) on two lines, closed over three second seeds."""
    rng = inst.rng
    s1 = inst.space = random_finite_metric(inst.n, inst.key("a:"), "euclidean", dim=1)
    s2 = inst.second = random_finite_metric(n2, inst.key("b:"), "euclidean", dim=1)
    g = random_table_function(s1, inst.key("g:"))
    y0 = rng.choice(s2.points)
    k, coeffs = coeffs_of(rng, s1)

    def f2(x: Point, y: Point) -> Num:
        return g.value(x) + coeffs[x.id] * s2.distance(y, y0)

    @functools.cache  # the closure and the comparisons share each slice problem
    def make_problem(y: Point) -> WitnessProblem:
        return torus_slope_problem(s1, slice_oracle(f2, y), "sup", t_mode=t_mode)

    seed1 = [rng.choice(s1.points)]
    seed2 = sort_points(rng.sample(list(s2.points), min(3, n2)))
    return s1, s2, f2, k, make_problem, seed2, lambda: product_closure(
        make_problem, seed1, seed2, **inst.opts)[0]


def _product_closure(inst: Instance) -> list[Stage]:
    """thm-2.3: the slice at every second seed is checked over the product closure.

    f2 = g(x) + c d(y, y0) with k = c is c-Lipschitz in y by the triangle
    inequality, in exact arithmetic, so no stage checks that bound here.
    """

    def coeffs(rng, s1):
        c = Fraction(rng.randint(0, 3), 2)
        return c, dict.fromkeys((x.id for x in s1.points), c)

    _, _, f2, _, make_problem, Y2, close = _product(inst, 3 + inst.index % 5, coeffs, "sample")
    return [Stage("closure", close, problems=lambda: [(slice_oracle(f2, y), make_problem(y))
                                                      for y in Y2])]


def _limits(inst: Instance) -> list[Stage]:
    """thm-3.1: grid liminf, limsup and continuity, every third function a step."""
    if inst.index % 3 == 0:
        space = inst.space = random_finite_metric(inst.n, inst.key(), "euclidean", dim=1)
        f = step_function(space, inst.key())
        inst.notes.append("step_function_instances")
    else:
        space, f = inst.table()
    radii = radius_truncation(space, inst.cfg.q_density)
    probs = [punctured_ball_problem(space, f, mode, truncation=radii) for mode in ("sup", "inf")]

    def limits(Y, at):  # each limit read once, continuity decided from the two
        return _sides(space, lambda y: (
            lo := liminf_at(f, space, *at, radii, Y=y), hi := limsup_at(f, space, *at, radii, Y=y),
            continuous(f.value(*at), lo, hi, inst.tol)), Y)

    return [Stage("closure", inst.closing(intersect_problems, probs),
                  (Comparison("limits", ("x",), _each, limits),))]


def _lip(comparison: Optional[Callable] = None) -> Callable:
    """prop-3.2/thm-3.3: closed under ball pairs, then checked as that family's
    sweep (the pairwise sup at each radius is its optimum) or by one formula."""

    def build(inst: Instance) -> list[Stage]:
        space, f = inst.table()
        radii = radius_truncation(space, inst.cfg.q_density)
        problem = ball_pairs_problem(space, f, "sup", truncation=radii)
        close = inst.closing(closure_iterate, problem)
        if comparison is None:
            return [Stage("closure", close, problems=lambda: [(f, problem)],
                          skip_note="skipped_no_pairs")]
        return [Stage("closure", close, (comparison(space, f, radii),))]

    return build


def _lip_modulus(space, f: FunctionOracle, radii: tuple) -> Comparison:
    def at(Y, at):
        return _sides(space, lambda y: lip_modulus(f, space, *at, radii, Y=y), Y)

    return Comparison("modulus", ("x",), _each, at)


def _shelled(t_mode: str, comparison: Optional[Callable] = None) -> Callable:
    """prop-4.1/thm-4.2: closed under descent shells, then checked as that
    family's sweep (each shell sup is its optimum) or by one descent formula."""

    def build(inst: Instance) -> list[Stage]:
        space, f = inst.table(INF_SHARE if inst.index % 4 == 1 else 0.0)
        shells = inst.shells(f, t_mode)
        problem = torus_slope_problem(space, f, "sup", truncation=shells)
        close = inst.closing(closure_iterate, problem)
        if any(not f.is_finite_at(p) for p in space.points):
            inst.notes.append("inf_function_instances")
        if comparison is None:
            return [Stage("closure", close, problems=lambda: [(f, problem)],
                          skip_note="skipped_empty_shell")]
        return [Stage("closure", close, (comparison(inst, space, f, shells),))]

    return build


def _slope(inst: Instance, space, f: FunctionOracle, shells: tuple) -> Comparison:
    def at(Y, at):
        out = _sides(space, lambda y: slope_at(f, space, *at, shells.grid, Y=y), Y)
        if not isinstance(out, str) and not f.is_finite_at(at[0]):
            inst.notes.append("convention_branch_checks")
        return out

    return Comparison("slope", ("x",), _each, at)


def _lipschitz(f2: Callable, s1, s2, k: Num, expected: bool, **kw) -> Stage:
    check = Comparison("lipschitz", (), lambda Y: [()],
                       lambda Y, at: (expected, verify_lipschitz_second(f2, s1, s2, k)), **kw)
    return Stage("lipschitz", None, (check,))


def _adversarial(inst: Instance) -> list[Stage]:
    """A planted bump breaks the Lipschitz bound in y; the check must reject it."""
    j = inst.local
    s1 = inst.space = random_finite_metric(4 + j % 4, inst.key("adv-a:"), "euclidean", dim=1)
    s2 = inst.second = random_finite_metric(3 + j % 4, inst.key("adv-b:"), "euclidean", dim=1)
    rng = Random(f"adv:{inst.name}:{inst.cfg.seed}:{j}")
    g = random_table_function(s1, inst.key("adv-g:"))
    y0 = s2.points[0]
    k = Fraction(rng.randint(1, 4), 2)
    bad = (rng.choice(s1.points), rng.choice([p for p in s2.points if p != y0]))
    # any scanned pair (bad_y, y) has gap >= bump - k*diam; keep that > k*diam
    bump = 2 * k * (s2.diameter() + 1) + 1

    def f2(x: Point, y: Point) -> Num:
        base = g.value(x) + k * s2.distance(y, y0)
        return base + bump if (x, y) == bad else base

    return [_lipschitz(f2, s1, s2, k, False, note="adversarial_rejected")]


def _partial_slope(inst: Instance) -> list[Stage]:
    """thm-4.3: a verified Lipschitz bound in y, then partial slopes at every seed."""
    if inst.n is None:
        return _adversarial(inst)

    def coeffs(rng, s1):
        k = Fraction(rng.randint(1, 4), 2)
        return k, {x.id: Fraction(rng.randint(-2 * k.numerator, 2 * k.numerator),
                                  2 * k.denominator) for x in s1.points}

    s1, s2, f2, k, make_problem, Y2, close = _product(inst, 3 + inst.index % 6, coeffs, "full")

    def slopes(Y, at):
        y, x = at
        g = make_problem(y).params.grid
        if len(s1) == 1:
            return "skipped_isolated"
        return partial_slope(f2, s1, x, y, grid=g), partial_slope(f2, s1, x, y, grid=g, Y1=Y)

    at = Comparison("partial-slope", ("y", "x"), lambda Y: ((y, x) for y in Y2 for x in Y),
                    slopes)
    return [_lipschitz(f2, s1, s2, k, True, counted=False, note="lipschitz_verified"),
            Stage("closure", close, (at,))]


SUITES: dict[str, tuple[Spec, str]] = {
    "prop-1.1": (Spec(52, (5, 6, 8, 10, 12, 14, 16), (), _intersection),
                 "intersection of generated families stays cofinal and checkable"),
    "thm-2.1": (Spec(102, _SMALL, (100, 64, 50, 40, 32, 25), _closure("sup")),
                "sup-mode closure determinacy over the shipped problem families"),
    "thm-2.2": (Spec(102, _SMALL, (100, 64, 50, 40, 32, 25), _closure("inf")),
                "inf-mode closure determinacy with argmin witnesses"),
    "thm-2.3": (Spec(24, (4, 5, 6, 7, 8, 9, 10), (), _product_closure),
                "product closure: slice identities at every sampled second factor"),
    "thm-3.1": (Spec(102, _SMALL, (40, 30, 25), _limits),
                "grid liminf/limsup and continuity verdicts survive restriction"),
    "prop-3.2": (Spec(102, _SMALL, (60, 50, 40, 30, 25), _lip()),
                 "pairwise sup over balls survives restriction at every radius"),
    "thm-3.3": (Spec(102, _SMALL, (60, 50, 40, 30, 25), _lip(_lip_modulus)),
                "local Lipschitz modulus survives restriction"),
    "prop-4.1": (Spec(102, _SMALL[:8], (40, 40, 30, 25), _shelled("sample")),
                 "shell descent supremum survives restriction at every parameter"),
    "thm-4.2": (Spec(102, _SMALL[:8], (30, 25, 20, 20), _shelled("full", _slope)),
                "descent slope survives restriction (convention branch logged)"),
    "thm-4.3": (Spec(32, (4, 5, 6, 8, 10, 12), (20, 16), _partial_slope,
                     extra=lambda cfg: max(10, (cfg.instances or 32) // 3)),
                "partial slopes on products; planted Lipschitz violations rejected"),
}


def run_suite(name: str, config: Optional[SuiteConfig] = None) -> SuiteReport:
    """Run one named suite; deterministic for a fixed config."""
    if name not in SUITES:
        raise UnknownSuite(f"unknown suite {name!r}; known: {sorted(SUITES)}")
    cfg = config if config is not None else SuiteConfig()
    t0 = time.perf_counter()
    report = _run(name, SUITES[name][0], cfg)
    report.runtime_seconds = time.perf_counter() - t0
    return report
