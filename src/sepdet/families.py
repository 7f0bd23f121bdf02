"""Operational view of cofinal, sigma-closed families of generated subsets.

A family handle bundles witness problems over one space.  Membership of a
set Y means one full closure round over Y adds nothing; cofinal extension
grows any finite seed into a member; increasing chains of members union into
members; and intersecting handles concatenates their operator lists, so a
member of the intersection is a member of every factor.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .errors import DepthExceeded, InvariantViolation, NotAChain, SpaceMismatch
from .extreal import Num
from .scheme import (
    GeneratedSubspace,
    WitnessProblem,
    closure_round,
    intersect_problems,
    sort_points,
    validate_selection,
)
from .spaces import MetricSpace, Point


@dataclass(frozen=True)
class FamilyHandle:
    """Witness problems plus selection config, all over one space."""

    space: MetricSpace
    problems: tuple[WitnessProblem, ...]
    eps: Num = 0
    cap: int = 1

    def __post_init__(self):
        if not self.problems:
            raise ValueError("a family needs at least one problem")
        validate_selection(self.eps, self.cap)
        for prob in self.problems:
            if prob.space is not self.space:
                raise SpaceMismatch(
                    f"problem {prob.name!r} lives on a different space")


def family_for(problems: Sequence[WitnessProblem], eps: Num = 0,
               cap: int = 1) -> FamilyHandle:
    if not problems:
        raise ValueError("a family needs at least one problem")
    return FamilyHandle(space=problems[0].space, problems=tuple(problems),
                        eps=eps, cap=cap)


def is_member(family: FamilyHandle, Y: Iterable[Point]) -> bool:
    """True when a full witness round over Y stays inside Y."""
    pts = sort_points(Y)
    if not pts:
        return False
    new, _ = closure_round(family.problems, pts, family.eps, family.cap)
    return not new


def cofinal_extend(family: FamilyHandle, seed: Iterable[Point],
                   max_depth: Optional[int] = None) -> GeneratedSubspace:
    """Grow a finite seed into a member containing it.

    Raises DepthExceeded when the closure fails to reach a fixed point
    within max_depth (only possible with an explicit bound or a lazy space).
    """
    result = intersect_problems(family.problems, seed, eps=family.eps,
                                cap=family.cap, max_depth=max_depth)
    if not result.fixed_point:
        raise DepthExceeded(
            f"no fixed point within {len(result.levels) - 1} rounds")
    return result


def sigma_union(family: FamilyHandle, chain: Sequence[Iterable[Point]]) -> tuple[Point, ...]:
    """Union of an increasing chain of members, verified to be a member.

    Raises NotAChain when consecutive sets fail inclusion.  The membership
    check on the union never fails for genuine members because the witness
    operators act pointwise; it guards against non-member inputs.
    """
    sets = [frozenset(c) for c in chain]
    if not sets:
        raise NotAChain("empty chain")
    for i, (a, b) in enumerate(zip(sets, sets[1:])):
        if not a <= b:
            raise NotAChain(f"chain breaks between stages {i} and {i + 1}")
    union: set = set()
    for s in sets:
        union |= s
    pts = sort_points(union)
    if not is_member(family, pts):
        raise InvariantViolation(
            "union of the chain is not closed; some stage was not a member")
    return pts


def intersect(families: Sequence[FamilyHandle]) -> FamilyHandle:
    """Concatenate operator lists: members are exactly the common members."""
    if not families:
        raise ValueError("need at least one family")
    space = families[0].space
    problems: list[WitnessProblem] = []
    for fam in families:
        if fam.space is not space:
            raise SpaceMismatch("families live on different spaces")
        if fam.eps != families[0].eps or fam.cap != families[0].cap:
            raise ValueError("families disagree on selection config")
        problems.extend(fam.problems)
    return FamilyHandle(space=space, problems=tuple(problems),
                        eps=families[0].eps, cap=families[0].cap)
