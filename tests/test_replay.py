"""Every failure a suite can report replays from its dump alone.

Failures are forced through `run_suite` itself: closures that stop at a
too-small Y (two points, reported as a fixed point), `max_depth=1`, a
brute-force oracle shifted by one, or a Lipschitz check that answers
wrong.  The suites look these names up in `sepdet.harness` at call time,
which is what the patches rely on.  Each dump then goes through JSON and
`replay_check`, which must reach the same verdict, values and tolerance.
"""

import json
from fractions import Fraction

import pytest

import sepdet.harness as harness
from sepdet import (
    DeterminacyCheck,
    GeneratedSubspace,
    SuiteConfig,
    fmt,
    replay_check,
    run_suite,
    sort_points,
)
from sepdet.harness import SUITES

SHARED = {"suite", "seed", "instance", "comparison", "at", "Y", "full", "restricted",
          "tolerance", "verdict"}
SMALL = {"instances": 3, "sizes": (6, 8)}


def enc(v):
    return [enc(u) for u in v] if isinstance(v, tuple) else fmt(v)


def too_small(space) -> GeneratedSubspace:
    pts = sort_points(space.points)[:2]
    return GeneratedSubspace(levels=[pts, pts], union=pts, fixed_point=True,
                             depth_exceeded=False, provenance={})


def tiny_closures(monkeypatch):
    """Every closure stops at the first two points of its space."""
    monkeypatch.setattr(harness, "closure_iterate", lambda p, seed, **kw: too_small(p.space))
    monkeypatch.setattr(harness, "intersect_problems",
                        lambda ps, seed, **kw: too_small(ps[0].space))
    monkeypatch.setattr(harness, "product_closure", lambda make, seed1, seed2, **kw: (
        too_small(make(seed2[0]).space), sort_points(seed2)))


def shifted_oracle(monkeypatch):
    real = harness.brute_force_optimum
    monkeypatch.setattr(harness, "brute_force_optimum", lambda *a, **kw: real(*a, **kw) + 1)


def lipschitz_answers(answer):
    def patch(monkeypatch):
        monkeypatch.setattr(harness, "verify_lipschitz_second", lambda *a, **kw: answer)
    return patch


# comparison -> (suite, how its failures are forced, config overrides)
FORCED = {
    "closure-check": ("thm-2.1", tiny_closures, {}),
    "closure-check (product slices)": ("thm-2.3", tiny_closures, {}),
    "oracle": ("thm-2.2", shifted_oracle, {}),
    "membership": ("prop-1.1", tiny_closures, {}),
    "limits": ("thm-3.1", tiny_closures, {}),
    "pair-sup": ("prop-3.2", tiny_closures, {}),
    "modulus": ("thm-3.3", tiny_closures, {}),
    "torus-sup": ("prop-4.1", tiny_closures, {}),
    "slope": ("thm-4.2", tiny_closures, {}),
    "partial-slope": ("thm-4.3", tiny_closures, {}),
    "lipschitz (valid instance rejected)": ("thm-4.3", lipschitz_answers(False), {}),
    "lipschitz (planted bump accepted)": ("thm-4.3", lipschitz_answers(True), {}),
    **{f"fixed-point ({name})": (name, None, {"max_depth": 1}) for name in sorted(SUITES)},
}


@pytest.mark.parametrize("label", sorted(FORCED))
def test_forced_failures_replay_to_the_same_verdict_and_values(label, monkeypatch):
    suite, force, overrides = FORCED[label]
    if force is not None:
        force(monkeypatch)  # stays in force for the replay, like any code under test
    report = run_suite(suite, SuiteConfig(**SMALL | overrides))
    comparison = label.split(" (")[0]
    dumps = [d for d in report.failures if d["comparison"] == comparison]
    assert dumps and not report.ok
    for dump in dumps:
        assert SHARED <= dump.keys()
        assert (dump["suite"], dump["seed"], dump["verdict"]) == (suite, 0, "fail")
        replayed = replay_check(json.loads(json.dumps(dump)))
        if isinstance(replayed, DeterminacyCheck):
            # a check of a witness problem: the dump also carries its descriptors
            assert {"space", "function", "problem", "z"} <= dump.keys()
            assert dump["at"] == dump["z"]
        assert replayed.verdict == "fail"
        assert (enc(replayed.lhs), enc(replayed.rhs)) == (dump["full"], dump["restricted"])
        assert fmt(replayed.tolerance) == dump["tolerance"]


def test_an_empty_restricted_shell_fails_and_replays(monkeypatch):
    tiny_closures(monkeypatch)
    report = run_suite("prop-4.1", SuiteConfig(**SMALL))
    dumps = [d for d in report.failures if d["restricted"] is None]
    assert dumps and all(d["comparison"] == "torus-sup" for d in dumps)
    assert replay_check(dumps[0]).rhs is None


def test_a_torus_sup_dump_names_one_parameter_and_replays_per_center(monkeypatch):
    # the comparison reads whole centers; its dumps keep the (x, param) of the
    # failing parameter, and replay reads that center once per side
    tiny_closures(monkeypatch)
    report = run_suite("prop-4.1", SuiteConfig(**SMALL))
    dumps = [d for d in report.failures if d["comparison"] == "torus-sup"]
    assert dumps and all(set(d["at"]) == {"x", "param"} and len(d["at"]["param"]) == 3
                         for d in dumps)
    reads = []
    real = harness.torus_sups
    monkeypatch.setattr(harness, "torus_sups", lambda *a, **kw: reads.append(a) or real(*a, **kw))
    monkeypatch.setattr(harness, "torus_sup", None)
    for dump in dumps:
        reads.clear()
        replayed = replay_check(json.loads(json.dumps(dump)))
        assert [a[2].id for a in reads] == [dump["at"]["x"]] * 2
        assert replayed.verdict == "fail"
        assert (enc(replayed.lhs), enc(replayed.rhs)) == (dump["full"], dump["restricted"])


def test_a_restricted_isolated_center_fails_and_replays(monkeypatch):
    tiny_closures(monkeypatch)
    cfg = SuiteConfig(instances=3, sizes=(6,),
                      shells_override=((1, Fraction(1, 2), Fraction(3, 2)),))
    report = run_suite("thm-4.2", cfg)
    dumps = [d for d in report.failures if d["restricted"] is None]
    assert dumps and all(d["comparison"] == "slope" for d in dumps)
    for dump in dumps:
        replayed = replay_check(json.loads(json.dumps(dump)))
        assert (replayed.verdict, replayed.rhs) == ("fail", None)
        assert enc(replayed.lhs) == dump["full"]


def test_a_center_isolated_in_y_fails_the_limits_and_replays(monkeypatch):
    def seed_only(problems, seed, **kw):
        pts = sort_points(seed)
        return GeneratedSubspace(levels=[pts, pts], union=pts, fixed_point=True,
                                 depth_exceeded=False, provenance={})

    monkeypatch.setattr(harness, "intersect_problems", seed_only)
    report = run_suite("thm-3.1", SuiteConfig(**SMALL))
    dumps = [d for d in report.failures if d["restricted"] is None]
    assert dumps and all(d["comparison"] == "limits" for d in dumps)
    for dump in dumps:
        replayed = replay_check(json.loads(json.dumps(dump)))
        assert (replayed.verdict, replayed.rhs) == ("fail", None)
        assert enc(replayed.lhs) == dump["full"]


def test_the_dumped_config_drives_the_rebuild():
    report = run_suite("thm-3.3", SuiteConfig(max_depth=1, **SMALL))
    dump = report.failures[0]
    assert dump["comparison"] == "fixed-point" and dump["config"]["max_depth"] == 1
    assert replay_check(dump).verdict == "fail"
    unbounded = dump | {"config": dump["config"] | {"max_depth": None}}
    assert replay_check(unbounded).verdict == "pass"
