"""Family handles: membership, cofinal extension, chain unions, intersection."""

import math
from fractions import Fraction

import pytest

from sepdet import (
    DepthExceeded,
    FamilyHandle,
    InvariantViolation,
    NotAChain,
    SpaceMismatch,
    builtin_function,
    closure_iterate,
    cofinal_extend,
    family_for,
    intersect,
    is_member,
    punctured_ball_problem,
    sigma_union,
    torus_slope_problem,
)
from conftest import coord_space

COORD = builtin_function("coord")


@pytest.fixture
def chain5():
    return coord_space([(f"c{k}", k) for k in range(5)])


def neighbor_family(space):
    prob = punctured_ball_problem(space, COORD, "sup",
                                  truncation=(Fraction(3, 2),))
    return family_for([prob])


class TestMembership:
    def test_whole_space_is_a_member(self, chain5):
        assert is_member(neighbor_family(chain5), chain5.points)

    def test_closure_output_is_a_member(self, chain5):
        fam = neighbor_family(chain5)
        gen = closure_iterate(fam.problems[0], [chain5.point("c0")])
        assert is_member(fam, gen.union)

    def test_dropping_a_generated_point_breaks_membership(self, chain5):
        fam = neighbor_family(chain5)
        gen = closure_iterate(fam.problems[0], [chain5.point("c0")])
        trimmed = [p for p in gen.union if p.id != "c4"]
        assert not is_member(fam, trimmed)

    def test_empty_set_is_not_a_member(self, chain5):
        assert not is_member(neighbor_family(chain5), [])

    def test_tail_of_the_chain_is_a_member(self, chain5):
        # {c3, c4}: both argmax witnesses stay inside, {c4} alone does not
        fam = neighbor_family(chain5)
        assert is_member(fam, [chain5.point("c3"), chain5.point("c4")])
        assert not is_member(fam, [chain5.point("c4")])


class TestSelectionConfig:
    @pytest.mark.parametrize("bad, message", [({"eps": -1}, "eps must be nonnegative"),
                                              ({"eps": math.nan}, "eps must be nonnegative"),
                                              ({"cap": 0}, "cap must be at least 1"),
                                              ({"cap": 1.5}, "cap must be an integer")])
    def test_bad_config_rejected_by_the_handle(self, chain5, bad, message):
        # is_member used to accept a non-member under each of these
        prob = neighbor_family(chain5).problems[0]
        with pytest.raises(ValueError, match=message):
            family_for([prob], **bad)
        with pytest.raises(ValueError, match=message):
            FamilyHandle(space=chain5, problems=(prob,), **bad)


class TestCofinalExtend:
    def test_members_extend_to_themselves(self, chain5):
        fam = neighbor_family(chain5)
        gen = cofinal_extend(fam, chain5.points)
        assert gen.union == chain5.points
        assert gen.level_sizes() == [5, 5]

    def test_singleton_grows_to_a_member_containing_it(self, chain5):
        fam = neighbor_family(chain5)
        seed = chain5.point("c1")
        gen = cofinal_extend(fam, [seed])
        assert seed in gen.union
        assert is_member(fam, gen.union)

    def test_extension_is_idempotent(self, chain5):
        fam = neighbor_family(chain5)
        first = cofinal_extend(fam, [chain5.point("c0")])
        again = cofinal_extend(fam, first.union)
        assert again.union == first.union

    def test_depth_bound_raises(self, chain5):
        fam = neighbor_family(chain5)
        with pytest.raises(DepthExceeded):
            cofinal_extend(fam, [chain5.point("c0")], max_depth=2)


class TestSigmaUnion:
    def test_constant_chain(self, chain5):
        fam = neighbor_family(chain5)
        Y = cofinal_extend(fam, [chain5.point("c0")]).union
        assert sigma_union(fam, [Y, Y, Y]) == Y

    def test_growing_chain_of_members(self, chain5):
        fam = neighbor_family(chain5)
        y1 = cofinal_extend(fam, [chain5.point("c3")]).union
        y2 = cofinal_extend(fam, list(y1) + [chain5.point("c1")]).union
        y3 = cofinal_extend(fam, list(y2) + [chain5.point("c0")]).union
        assert set(y1) <= set(y2) <= set(y3)
        union = sigma_union(fam, [y1, y2, y3])
        assert set(union) == set(y3)
        assert is_member(fam, union)

    def test_non_increasing_chain_rejected(self, chain5):
        fam = neighbor_family(chain5)
        a = [chain5.point("c3"), chain5.point("c4")]
        b = [chain5.point("c0")]
        with pytest.raises(NotAChain):
            sigma_union(fam, [a, b])

    def test_empty_chain_rejected(self, chain5):
        with pytest.raises(NotAChain):
            sigma_union(neighbor_family(chain5), [])

    def test_union_of_non_members_is_caught(self, chain5):
        fam = neighbor_family(chain5)
        bad = [chain5.point("c0")]  # not closed: c1 is its witness
        with pytest.raises(InvariantViolation):
            sigma_union(fam, [bad, bad])


class TestIntersect:
    def two_families(self, space):
        f1 = family_for([punctured_ball_problem(space, COORD, "sup")])
        f2 = family_for([torus_slope_problem(space, COORD, "sup")])
        return f1, f2

    def test_single_family_intersection_is_equivalent(self, chain5):
        fam = neighbor_family(chain5)
        both = intersect([fam])
        assert is_member(both, chain5.points)
        gen = cofinal_extend(both, [chain5.point("c0")])
        plain = cofinal_extend(fam, [chain5.point("c0")])
        assert gen.union == plain.union

    def test_duplicate_factors_change_nothing(self, chain5):
        fam = neighbor_family(chain5)
        doubled = intersect([fam, fam])
        gen = cofinal_extend(doubled, [chain5.point("c2")])
        plain = cofinal_extend(fam, [chain5.point("c2")])
        assert gen.union == plain.union

    def test_member_of_intersection_is_member_of_each(self, chain5):
        f1, f2 = self.two_families(chain5)
        both = intersect([f1, f2])
        gen = cofinal_extend(both, [chain5.point("c2")])
        assert is_member(f1, gen.union)
        assert is_member(f2, gen.union)
        assert is_member(both, gen.union)

    def test_membership_is_the_conjunction(self, chain5):
        f1, f2 = self.two_families(chain5)
        both = intersect([f1, f2])
        for Y in ([chain5.point("c3"), chain5.point("c4")],
                  list(chain5.points), [chain5.point("c0")]):
            assert is_member(both, Y) == (is_member(f1, Y) and is_member(f2, Y))

    def test_mismatched_spaces_rejected(self, chain5):
        other = coord_space([("z0", 0), ("z1", 1)])
        with pytest.raises(SpaceMismatch):
            intersect([neighbor_family(chain5), neighbor_family(other)])

    def test_config_disagreement_rejected(self, chain5):
        prob = punctured_ball_problem(chain5, COORD, "sup")
        with pytest.raises(ValueError):
            intersect([family_for([prob], eps=0), family_for([prob], eps=1)])

    def test_needs_at_least_one_family(self):
        with pytest.raises(ValueError):
            intersect([])
