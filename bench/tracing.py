"""Spans and counts recorded around calls into sepdet's modules.

The tracer patches module attributes, class attributes and the problem
factories of an imported sepdet from the outside, and restores them on
uninstall; sepdet's source is never edited.  Each patched call opens a frame
on one stack, so a frame's self time is its duration minus the time of the
patched calls made inside it.  Coarse calls (suite, CLI, closure, round,
oracle, membership, truncation, descriptor, validation) are kept as spans
with a parent; hot calls (region, score, check, formulas) are aggregated.
"""

from __future__ import annotations

import dataclasses
import itertools
import time
from collections import defaultdict

LAYERS = ("spaces", "functionals", "scheme", "families", "harness", "cli")

# (module, attribute, group, layer, kept as span, count hook).  The group
# names the metric prefix.  Bindings are patched where the caller looks them
# up, so a call is seen once however the callee is reached.
_TIMED = (
    ("sepdet", "run_suite", "harness.run_suite", "harness", True, None),
    ("sepdet.cli", "run_cli", "cli.run", "cli", True, None),
    ("sepdet.harness", "random_finite_metric", "harness.instance_gen", "harness", True, None),
    ("sepdet.harness", "random_table_function", "harness.instance_gen", "harness", True, None),
    ("sepdet.harness", "step_function", "harness.instance_gen", "harness", True, None),
    ("sepdet.harness", "brute_force_optimum", "harness.oracle", "harness", True, "oracle"),
    ("sepdet.harness", "radius_truncation", "functionals.truncation", "functionals", True,
     "truncation"),
    ("sepdet.harness", "shell_truncation", "functionals.truncation", "functionals", True,
     "truncation"),
    ("sepdet.harness", "level_grid", "functionals.truncation", "functionals", True, None),
    ("sepdet.functionals", "radius_truncation", "functionals.truncation", "functionals", True,
     "truncation"),
    ("sepdet.functionals", "shell_truncation", "functionals.truncation", "functionals", True,
     "truncation"),
    ("sepdet.functionals", "level_grid", "functionals.truncation", "functionals", True, None),
    ("sepdet.harness", "liminf_at", "functionals.limits", "functionals", False, None),
    ("sepdet.harness", "limsup_at", "functionals.limits", "functionals", False, None),
    ("sepdet.harness", "continuity_check", "functionals.limits", "functionals", False, None),
    ("sepdet.harness", "lip_local_sup", "functionals.lip", "functionals", False, None),
    ("sepdet.harness", "lip_modulus", "functionals.lip", "functionals", False, None),
    ("sepdet.harness", "torus_sup", "functionals.torus_sup", "functionals", False, None),
    ("sepdet.harness", "slope_at", "functionals.slope", "functionals", False, None),
    ("sepdet.harness", "partial_slope", "functionals.partial_slope", "functionals", False,
     None),
    ("sepdet.harness", "verify_lipschitz_second", "functionals.lipschitz_check",
     "functionals", False, None),
    ("sepdet.functionals", "ball_points", "spaces.region", "spaces", False, None),
    ("sepdet.functionals", "punctured_ball_points", "spaces.region", "spaces", False, None),
    ("sepdet.functionals", "torus_points", "spaces.region", "spaces", False, None),
    ("sepdet.functionals", "ball_pairs", "spaces.region", "spaces", False, None),
    ("sepdet.cli", "space_from_descriptor", "spaces.descriptor", "spaces", True, None),
    ("sepdet.harness", "closure_iterate", "scheme.closure", "scheme", True, "closure"),
    ("sepdet.harness", "intersect_problems", "scheme.closure", "scheme", True, "closure"),
    ("sepdet.harness", "product_closure", "scheme.closure", "scheme", True, "closure"),
    ("sepdet.cli", "closure_iterate", "scheme.closure", "scheme", True, "closure"),
    ("sepdet.scheme", "closure_round", "scheme.closure_round", "scheme", True, "round"),
    ("sepdet.harness", "check_reduction", "scheme.check", "scheme", False, "check"),
    ("sepdet.cli", "check_reduction", "scheme.check", "scheme", False, "check"),
    ("sepdet.families", "is_member", "families.member", "families", True, None),
)
_FACTORIES = ("punctured_ball_problem", "ball_pairs_problem", "torus_slope_problem")
_COUNTED_NAMES = {"fmt": "extreal.fmt_calls", "parse": "extreal.parse_calls"}
# modules that call extreal's fmt/parse through their own bindings
_FMT_CALLERS = ("sepdet.cli", "sepdet.functionals", "sepdet.harness", "sepdet.scheme",
                "sepdet.spaces")
MODULES = ("sepdet", "sepdet.cli", "sepdet.families", "sepdet.functionals",
           "sepdet.harness", "sepdet.scheme", "sepdet.spaces")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


class Tracer:
    """One traced execution: frames, spans, per-group totals and counts."""

    def __init__(self, modules: dict):
        self.modules = modules  # module name -> imported module
        self.stack: list = []  # open frames: [child seconds, start, span id]
        self.spans: list = []  # [id, parent, op, name, start, end]
        self.seconds = defaultdict(float)  # inclusive, outermost call of a group
        self.calls = defaultdict(int)
        self.group_self = defaultdict(float)
        self.layer_self = defaultdict(float)
        self.counts = defaultdict(int)
        self.region_keys: set = set()
        self.depth = defaultdict(int)
        self.op = -1
        self.round_n = 0
        self._ids = itertools.count()
        self._problems = itertools.count()
        self._undo: list = []

    # -- frames ------------------------------------------------------------

    def timed(self, fn, group: str, layer: str, record: bool, after=None):
        perf = time.perf_counter
        stack = self.stack
        depth = self.depth

        def wrapper(*args, **kwargs):
            frame = [0.0, perf(), next(self._ids) if record else None]
            stack.append(frame)
            depth[group] += 1
            done = False
            try:
                result = fn(*args, **kwargs)
                done = True
            finally:
                end = perf()
                stack.pop()
                depth[group] -= 1
                self._close(group, layer, frame, end)
                if done and after is not None and depth[group] == 0:
                    after(args, kwargs, result)
                if stack:  # the parent sees this call, bookkeeping included, as a child
                    stack[-1][0] += perf() - frame[1]
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _close(self, group, layer, frame, end):
        dur = end - frame[1]
        own = dur - frame[0]
        self.group_self[group] += own
        self.layer_self[layer] += own
        if self.depth[group] == 0:
            self.seconds[group] += dur
            self.calls[group] += 1
        if frame[2] is not None:
            parent = next((f[2] for f in reversed(self.stack) if f[2] is not None), None)
            self.spans.append([frame[2], parent, self.op, group, frame[1], end])

    def counted(self, fn, name: str):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- count hooks -------------------------------------------------------

    def _after_oracle(self, args, kwargs, result):
        problem = args[0]
        restrict = args[2] if len(args) > 2 else kwargs.get("restrict")
        pool = len(list(restrict)) if restrict is not None else len(problem.space)
        self.counts["oracle_tuples"] += pool ** problem.arity

    def _after_truncation(self, args, kwargs, result):
        self.counts["truncation_params"] += len(result)

    def _after_closure(self, args, kwargs, result):
        gen = result[0] if isinstance(result, tuple) else result
        self.counts["closure_points"] += len(gen.union)
        self.counts["closure_space_points"] += self.round_n

    def _after_round(self, args, kwargs, result):
        problems, current = args[0], args[1]
        frontier = kwargs.get("frontier")
        swept = len(set(frontier if frontier is not None else current))
        self.counts["sweep_pairs"] += swept * sum(len(p.params.truncation) for p in problems)
        self.counts["sweep_new"] += len(result[0])
        self.round_n = len(problems[0].space)

    def _after_check(self, args, kwargs, result):
        if result.verdict == "skipped-empty-region":
            self.counts["check_skipped"] += 1
        self.counts["check_region_members"] += result.region_size
        self.counts["check_restricted_members"] += result.restricted_size

    def _after_validate(self, args, kwargs, result):
        self.counts["validate_triples"] += len(args[0].points) ** 3

    def _region_hook(self, tag: int):
        keys = self.region_keys
        counts = self.counts

        def after(args, kwargs, result):
            counts["region_members"] += len(result)
            p = args[1]  # the level t of a torus triple does not change the shell
            keys.add((tag, args[0].id, p[1:] if isinstance(p, tuple) else p))

        return after

    def _factory(self, build):
        def wrapper(*args, **kwargs):
            problem = build(*args, **kwargs)
            region = self.timed(problem.region, "functionals.region", "functionals", False,
                                self._region_hook(next(self._problems)))
            score = self.timed(problem.score, "functionals.score", "functionals", False)
            return dataclasses.replace(problem, region=region, score=score)

        wrapper.__wrapped__ = build
        return wrapper

    # -- install / uninstall -----------------------------------------------

    def _patch(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        m = self.modules
        for mod, attr, group, layer, record, hook in _TIMED:
            after = getattr(self, f"_after_{hook}") if hook else None
            fn = getattr(m[mod], attr)
            self._patch(m[mod], attr, self.timed(fn, group, layer, record, after))
        space_cls = m["sepdet.spaces"].FiniteMetricSpace
        self._patch(space_cls, "validate", self.timed(
            space_cls.validate, "spaces.validate", "spaces", True, self._after_validate))
        self._patch(space_cls, "distance",
                    self.counted(space_cls.distance, "spaces.distance_calls"))
        functionals = m["sepdet.functionals"]
        for attr in _FACTORIES:
            wrapped = self._factory(getattr(functionals, attr))
            self._patch(functionals, attr, wrapped)
            self._patch(m["sepdet.harness"], attr, wrapped)
        families = functionals.PROBLEM_FAMILIES
        self._undo.append((families, None, dict(families)))
        for key, build in list(families.items()):
            families[key] = self._factory(build)
        for mod in _FMT_CALLERS:
            for attr, name in _COUNTED_NAMES.items():
                if hasattr(m[mod], attr):
                    self._patch(m[mod], attr, self.counted(getattr(m[mod], attr), name))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            if attr is None:
                owner.clear()
                owner.update(value)
            else:
                setattr(owner, attr, value)

    # -- results -----------------------------------------------------------

    def metrics(self) -> dict:
        """Per-layer metrics of this traced execution."""
        s, c, n = self.seconds, self.calls, self.counts
        out = {
            "harness.suite_self_s": self.group_self["harness.run_suite"],
            "harness.instance_gen_s": s["harness.instance_gen"],
            "harness.oracle_s": s["harness.oracle"],
            "harness.oracle_calls": c["harness.oracle"],
            "harness.oracle_tuples": n["oracle_tuples"],
            "functionals.truncation_s": s["functionals.truncation"],
            "functionals.truncation_params": n["truncation_params"],
            "functionals.region_calls": c["functionals.region"],
            "functionals.region_s": s["functionals.region"],
            "functionals.region_members": n["region_members"],
            "functionals.region_reuse": 1 - _ratio(len(self.region_keys),
                                                   c["functionals.region"])
            if c["functionals.region"] else 0.0,
            "functionals.score_calls": c["functionals.score"],
            "functionals.score_s": s["functionals.score"],
            "functionals.limits_s": s["functionals.limits"],
            "functionals.lip_s": s["functionals.lip"],
            "functionals.torus_sup_s": s["functionals.torus_sup"],
            "functionals.slope_s": s["functionals.slope"],
            "functionals.partial_slope_s": s["functionals.partial_slope"],
            "functionals.lipschitz_check_s": s["functionals.lipschitz_check"],
            "spaces.region_calls": c["spaces.region"],
            "spaces.region_s": s["spaces.region"],
            "spaces.distance_calls": n["spaces.distance_calls"],
            "spaces.descriptor_s": s["spaces.descriptor"],
            "spaces.validate_s": s["spaces.validate"],
            "spaces.validate_calls": c["spaces.validate"],
            "spaces.validate_triples": n["validate_triples"],
            "scheme.closure_s": s["scheme.closure"],
            "scheme.closure_calls": c["scheme.closure"],
            "scheme.closure_rounds": c["scheme.closure_round"],
            "scheme.sweep_pairs": n["sweep_pairs"],
            "scheme.sweep_yield": _ratio(n["sweep_new"], n["sweep_pairs"]),
            "scheme.closure_fraction": _ratio(n["closure_points"], n["closure_space_points"]),
            "scheme.select_self_s": self.group_self["scheme.closure_round"],
            "scheme.check_s": s["scheme.check"],
            "scheme.check_calls": c["scheme.check"],
            "scheme.check_self_s": self.group_self["scheme.check"],
            "scheme.check_region_members": n["check_region_members"],
            "scheme.check_restricted_ratio": _ratio(n["check_restricted_members"],
                                                    n["check_region_members"]),
            "scheme.check_skipped_share": _ratio(n["check_skipped"], c["scheme.check"]),
            "families.member_s": s["families.member"],
            "families.member_calls": c["families.member"],
            "extreal.parse_calls": n["extreal.parse_calls"],
            "extreal.fmt_calls": n["extreal.fmt_calls"],
            "cli.run_s": s["cli.run"],
        }
        for layer in LAYERS:
            out[f"{layer}.self_s"] = self.layer_self[layer]
        return out
