"""Acceptance runs: the nine shipped criteria at their full default sizes.

Every test runs its criterion end to end, appends one PASS/FAIL line to the
terminal summary (see conftest), and then asserts.  Comparison tolerances are
the pinned defaults: 0 for exact (int/Fraction) score chains, 1e-12 when a
value passed through floats.  Expect a few minutes of total runtime; the only
criterion with its own time budget is the first.
"""

import functools
import hashlib
import json
from random import Random

from sepdet import (
    SUITES,
    SuiteConfig,
    ball_pairs_problem,
    check_reduction,
    closure_iterate,
    cofinal_extend,
    family_for,
    is_member,
    punctured_ball_problem,
    random_finite_metric,
    random_table_function,
    run_suite,
    sigma_union,
    torus_slope_problem,
)
from conftest import criterion_lines

EXACT_TOL = 0
FLOAT_TOL = 1e-12


def record(number: int, ok: bool, detail: str) -> None:
    verdict = "PASS" if ok else "FAIL"
    criterion_lines.append(f"[criterion {number}] {verdict} - {detail}")
    assert ok, f"criterion {number}: {detail}"


@functools.cache  # each suite runs once per session; the tests only read its report
def run_default(name: str):
    report = run_suite(name, SuiteConfig())
    assert report.seed == 0  # pinned so reruns are byte-identical
    return report


class TestCriterion1SupDeterminacy:
    def test_sup_closures_pass_every_check_under_60s(self):
        report = run_default("thm-2.1")
        ok = (report.ok
              and report.instances >= 100
              and report.passes == report.instances
              and report.notes.get("oracle_crosschecks", 0) >= report.instances
              and report.runtime_seconds < 60.0)
        record(1, ok,
               f"thm-2.1: {report.passes}/{report.instances} instances, "
               f"{report.checks_passed} checks, "
               f"{report.notes.get('oracle_crosschecks', 0)} oracle crosschecks, "
               f"{report.runtime_seconds:.1f}s (budget 60s)")


class TestCriterion2InfDeterminacy:
    def test_inf_closures_pass_every_check(self):
        report = run_default("thm-2.2")
        ok = (report.ok
              and report.instances >= 100
              and report.passes == report.instances)
        record(2, ok,
               f"thm-2.2: {report.passes}/{report.instances} instances, "
               f"{report.checks_passed} checks, "
               f"{report.checks_failed} failed")


class TestCriterion3IntersectionFamilies:
    def test_intersections_stay_cofinal_and_checkable(self):
        report = run_default("prop-1.1")
        ok = (report.ok
              and report.instances >= 50
              and report.passes == report.instances)
        record(3, ok,
               f"prop-1.1: {report.passes}/{report.instances} instances, "
               f"{report.checks_passed} membership+determinacy checks")


class TestCriterion4SigmaClosedness:
    def test_chain_unions_stay_members(self):
        chains = 0
        for i in range(50):
            n = 5 + (i % 8)
            method = "euclidean" if i % 2 else "shortest-path"
            space = random_finite_metric(n, f"sigma:{i}", method, dim=1)
            f = random_table_function(space, f"sigma:{i}")
            fam = family_for([
                punctured_ball_problem(space, f, "sup"),
                ball_pairs_problem(space, f, "sup"),
            ])
            rng = Random(f"sigma-pick:{i}")
            pts = list(space.points)
            rng.shuffle(pts)
            y1 = cofinal_extend(fam, [pts[0]]).union
            y2 = cofinal_extend(fam, list(y1) + [pts[1]]).union
            y3 = cofinal_extend(fam, list(y2) + [pts[2]]).union
            assert set(y1) <= set(y2) <= set(y3)
            union = sigma_union(fam, [y1, y2, y3])  # verifies membership
            assert is_member(fam, union)
            chains += 1
        record(4, chains >= 50,
               f"sigma-closedness: {chains} increasing chains of members, "
               f"every union verified a member")


class TestCriterion5LimitsAndContinuity:
    def test_limits_and_continuity_survive_restriction(self):
        report = run_default("thm-3.1")
        steps = report.notes.get("step_function_instances", 0)
        ok = (report.ok
              and report.instances >= 100
              and report.passes == report.instances
              and steps >= 30)
        record(5, ok,
               f"thm-3.1: {report.passes}/{report.instances} instances "
               f"({steps} with step functions), "
               f"{report.checks_passed} liminf/limsup/continuity checks")


class TestCriterion6PairwiseLipschitz:
    def test_ball_pair_sup_and_modulus_survive_restriction(self):
        pair = run_default("prop-3.2")
        modulus = run_default("thm-3.3")
        ok = (pair.ok and pair.instances >= 100
              and modulus.ok and modulus.instances >= 100)
        record(6, ok,
               f"prop-3.2: {pair.passes}/{pair.instances} instances, "
               f"{pair.checks_passed} radius checks; "
               f"thm-3.3: {modulus.passes}/{modulus.instances} instances, "
               f"{modulus.checks_passed} modulus checks")


class TestCriterion7ShellSupAndSlope:
    def test_torus_sup_survives_restriction(self):
        report = run_default("prop-4.1")
        inf_runs = report.notes.get("inf_function_instances", 0)
        ok = (report.ok
              and report.instances >= 100
              and inf_runs >= 1)
        record(7, ok,
               f"prop-4.1: {report.passes}/{report.instances} instances "
               f"({inf_runs} with +inf values), "
               f"{report.checks_passed} shell checks; see also the slope half")

    def test_slope_survives_restriction_with_the_convention_branch(self):
        report = run_default("thm-4.2")
        inf_runs = report.notes.get("inf_function_instances", 0)
        branch = report.notes.get("convention_branch_checks", 0)
        ok = (report.ok
              and report.instances >= 100
              and inf_runs >= 1
              and branch >= 1)
        # extend criterion 7's line rather than adding a new number
        criterion_lines[-1] = (criterion_lines[-1]
                               + f" | thm-4.2: {report.passes}/{report.instances}"
                               f" instances, {branch} convention-branch checks")
        if not ok:
            criterion_lines[-1] = criterion_lines[-1].replace(
                "[criterion 7] PASS", "[criterion 7] FAIL", 1)
        assert ok, f"criterion 7 (slope half): {report.summary()}"


class TestCriterion8PartialSlopes:
    def test_products_pass_and_planted_violations_are_rejected(self):
        report = run_default("thm-4.3")
        verified = report.notes.get("lipschitz_verified", 0)
        rejected = report.notes.get("adversarial_rejected", 0)
        ok = (report.ok
              and verified >= 30
              and rejected >= 10
              and report.instances >= verified + rejected)
        record(8, ok,
               f"thm-4.3: {verified} verified product instances, "
               f"{rejected}/{rejected} adversarial bumps rejected, "
               f"{report.checks_passed} partial-slope checks")


class TestCriterion9Structural:
    @staticmethod
    def _problem(space, f, i):
        builders = (punctured_ball_problem, ball_pairs_problem,
                    torus_slope_problem)
        return builders[i % 3](space, f, "sup")

    def test_replays_are_deterministic_idempotent_and_bounded(self):
        replays = 0
        bound_checks = 0
        for i in range(100):
            n = 4 + (i % 10)
            method = "euclidean" if i % 2 else "shortest-path"
            space = random_finite_metric(n, f"rep:{i}", method, dim=1)
            f = random_table_function(space, f"rep:{i}",
                                      inf_share=0.2 if i % 5 == 0 else 0.0)
            seed = [space.points[i % n]]

            first = closure_iterate(self._problem(space, f, i), seed)
            second = closure_iterate(self._problem(space, f, i), seed)
            assert json.dumps(first.to_json(), sort_keys=True) == \
                json.dumps(second.to_json(), sort_keys=True)
            assert first.fixed_point

            prob = self._problem(space, f, i)
            again = closure_iterate(prob, first.union)
            assert frozenset(again.union) == frozenset(first.union)
            assert len(again.levels) == 2  # fixed immediately: idempotent

            # the one-sided bound is asserted inside every check; a pass here
            # also certifies no InvariantViolation fired
            Y = first.union
            for x in Y:
                for p in prob.params.truncation:
                    chk = check_reduction(prob, Y, (x, p))
                    if chk.verdict == "skipped-empty-region":
                        continue
                    assert chk.verdict == "pass"
                    assert chk.tolerance in (EXACT_TOL, FLOAT_TOL)
                    if chk.region_hit:
                        assert chk.rhs <= chk.lhs
                        bound_checks += 1
            replays += 1
        record(9, replays >= 100 and bound_checks > 0,
               f"structural: {replays} closure replays byte-identical and "
               f"idempotent, monotone bound held on {bound_checks} checks")


# sha256 of each default seed-0 report as sorted-key JSON (runtime is kept out
# of it): a change that claims the same results must leave every one in place
DEFAULT_DIGESTS = {
    "prop-1.1": "1484950f7ef65acc678d28f94d594e884fb4ebba81829e6d24b0285c02aeb2ad",
    "prop-3.2": "54c776d5dfd9a69b689f1b79a960f7c69bf032da7ffe9e0797740fac361517c8",
    "prop-4.1": "3ca44ae6ab45b286c0cd9a0f0ce5a9c48ca0d5bb1bee37192e3d7ed90289eab3",
    "thm-2.1": "25847620c164ce2aed446a8ab138df9f020f89a8d18f30f56154dedb816abf3c",
    "thm-2.2": "67de62d70bdc10bc382a70039e653fa860c86d6ea979103985cd0350bb78d9f6",
    "thm-2.3": "3af103fb7f8cd844cf30e7afb5136c4384b6e1402ccc5a3b54333d03e9cc9dd4",
    "thm-3.1": "8bf1614b2d17d6047c5a69dcf4e1f9d031750f6acdbb9c836ea92c89b03c3564",
    "thm-3.3": "2668bca84de8287135290606f2c472a6a7564e4c6ed8a418bc170c04b60c4ce4",
    "thm-4.2": "e26fb351b81d7154c426a7f407a1d3d464d2ed16b81fe2b5ff4a9ab656a15ac0",
    "thm-4.3": "9ba3d0afa626b15abbb1fb27d0a4d6864bcf68f71854dcbc2fd4a6a5ea02c615",
}


def test_default_reports_are_byte_identical():
    assert sorted(DEFAULT_DIGESTS) == sorted(SUITES)
    got = {name: hashlib.sha256(json.dumps(run_default(name).to_json(),
                                            sort_keys=True).encode()).hexdigest()
           for name in DEFAULT_DIGESTS}
    assert got == DEFAULT_DIGESTS
