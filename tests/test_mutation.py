"""Every suite notices a closure that misses one point.

The closures the suites call are wrapped so that each returns its fixed
point minus the last point it added beyond the seed.  The suites look these
names up in `sepdet.harness` at call time.  A suite whose comparisons cannot
fail would pass under this mutation, so every suite must report at least one
failed check over a few seeds, and pass every check without the mutation.
"""

import pytest

import sepdet.harness as harness
from sepdet import GeneratedSubspace, SuiteConfig, run_suite
from sepdet.harness import SUITES

SEEDS = (0, 1, 2)
SMALL = {"instances": 4, "sizes": (6, 8, 10)}


def drop_last(gen: GeneratedSubspace) -> GeneratedSubspace:
    """The closure without its last-added non-seed point, still called a fixed point."""
    if len(gen.union) == len(gen.levels[0]):
        return gen
    union = gen.union[:-1]
    levels = [tuple(p for p in lv if p in union) for lv in gen.levels]
    provenance = {p: pr for p, pr in gen.provenance.items() if p in union}
    return GeneratedSubspace(levels=levels, union=union, fixed_point=gen.fixed_point,
                             depth_exceeded=gen.depth_exceeded, provenance=provenance,
                             skipped_empty=gen.skipped_empty)


def one_point_short(monkeypatch):
    closure, intersect, product = (harness.closure_iterate, harness.intersect_problems,
                                   harness.product_closure)
    monkeypatch.setattr(harness, "closure_iterate", lambda *a, **kw: drop_last(closure(*a, **kw)))
    monkeypatch.setattr(harness, "intersect_problems",
                        lambda *a, **kw: drop_last(intersect(*a, **kw)))

    def product_short(*a, **kw):
        gen, Y2 = product(*a, **kw)
        return drop_last(gen), Y2

    monkeypatch.setattr(harness, "product_closure", product_short)


@pytest.mark.parametrize("name", sorted(SUITES))
def test_a_closure_one_point_short_fails_every_suite(name, monkeypatch):
    assert all(run_suite(name, SuiteConfig(seed=seed, **SMALL)).ok for seed in SEEDS)
    one_point_short(monkeypatch)
    failed = sum(run_suite(name, SuiteConfig(seed=seed, **SMALL)).checks_failed
                 for seed in SEEDS)
    assert failed >= 1
