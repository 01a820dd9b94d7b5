"""The four seat-by-seat methods: regressions, per-step laws, oracles."""

from __future__ import annotations

import math
from fractions import Fraction

import pytest
from hypothesis import assume, given, strategies as st

from apportree import (
    Allocation,
    Instance,
    InvalidInstanceError,
    MethodKind,
    NoEligibleChild,
    QuotaMode,
    TreeFamily,
    TreeKind,
    check_allocation,
    random_instance,
    relative_entitlements,
    run_method,
    step,
)

import apportree.core as core
from apportree.methods import _walk

from conftest import flat_instance, irregular_instances, share_lists
from oracles import (
    adams_single_level,
    jefferson_single_level,
    quota_single_level,
    walk_by_global_shares,
)

method_kinds = st.sampled_from(list(MethodKind))


class TestKnownAllocations:
    def test_adams_sym7(self, sym7):
        traj = run_method(sym7, MethodKind.ADAMS, 6)
        assert traj.final.seats == (6, 2, 1, 2, 1, 3, 3)
        assert check_allocation(sym7, traj.final).upper_violation_count == 0

    def test_jefferson_flat5(self, flat5):
        traj = run_method(flat5, MethodKind.JEFFERSON, 6)
        assert traj.final.seats == (6, 2, 2, 1, 1)

    def test_jefferson_nested5_starves_the_small_branch(self, nested5):
        traj = run_method(nested5, MethodKind.JEFFERSON, 5)
        assert traj.final.seats[1] == 5
        assert traj.final.seats[3] == 5

    def test_quota_nested5_breaks_upper_quota(self, nested5):
        traj = run_method(nested5, MethodKind.QUOTA, 5)
        assert traj.final.seats == (5, 5, 0, 5, 0)
        report = check_allocation(nested5, traj.final)
        assert report.upper_violated[3]
        assert report.bounds[3].upper == 4
        assert report.upper_violation_count == 1

    def test_uc_quota_nested5_stops_at_the_bound(self, nested5):
        traj = run_method(nested5, MethodKind.UC_QUOTA, 5)
        assert traj.final.seats[3] == 4
        report = check_allocation(nested5, traj.final)
        assert report.upper_violation_count == 0

    def test_uc_quota_deep7_pays_with_lower_quota(self, deep7):
        traj = run_method(deep7, MethodKind.UC_QUOTA, 5)
        assert traj.final.seats == (5, 5, 0, 4, 1, 3, 1)
        report = check_allocation(deep7, traj.final)
        assert report.upper_violation_count == 0
        assert report.lower_violated[5]
        assert report.bounds[5].lower == 4
        assert report.bounds[5].binding_lower_ancestor == 1

    @pytest.mark.parametrize("method", list(MethodKind))
    def test_single_node_gets_everything(self, single, method):
        traj = run_method(single, method, 9)
        assert traj.final.seats == (9,)
        assert traj.paths == ((0,),) * 9

    @pytest.mark.parametrize("method", list(MethodKind))
    def test_zero_house(self, sym7, method):
        traj = run_method(sym7, method, 0)
        assert traj.final == Allocation(0, (0,) * 7)
        assert traj.paths == ()

    def test_adams_zero_seat_order_by_share_then_index(self, flat5):
        # Unseated children all sit at ratio zero; the heavier share leads,
        # equal shares fall back to the lower index (nodes 3 and 4).
        traj = run_method(flat5, MethodKind.ADAMS, 4)
        assert traj.paths == ((0, 1), (0, 2), (0, 3), (0, 4))

    def test_jefferson_exact_tie_goes_to_lower_index(self):
        inst = Instance([None, 0, 0], [1, Fraction(1, 2), Fraction(1, 2)])
        traj = run_method(inst, MethodKind.JEFFERSON, 1)
        assert traj.paths == ((0, 1),)


class TestTrajectoryShape:
    def test_fields(self, sym7):
        traj = run_method(sym7, "adams", 6)
        assert traj.instance is sym7
        assert traj.method is MethodKind.ADAMS
        assert len(traj.paths) == 6

    def test_allocation_at_prefixes(self, sym7):
        traj = run_method(sym7, "jefferson", 8)
        assert traj.allocation_at(0) == Allocation(0, (0,) * 7)
        assert traj.allocation_at(8) == traj.final
        for h, alloc in enumerate(traj.allocations()):
            assert alloc == traj.allocation_at(h)

    def test_allocation_at_range_checked(self, sym7):
        traj = run_method(sym7, "adams", 3)
        with pytest.raises(ValueError):
            traj.allocation_at(4)
        with pytest.raises(ValueError):
            traj.allocation_at(-1)

    def test_run_rejects_bad_house(self, sym7):
        with pytest.raises(ValueError):
            run_method(sym7, "adams", -1)
        with pytest.raises(ValueError):
            run_method(sym7, "adams", 2.0)
        with pytest.raises(ValueError):
            run_method(sym7, "adams", True)
        with pytest.raises(ValueError):
            run_method(sym7, "adams", False)

    def test_run_validates_instance(self):
        bad = Instance([None, 0, 0], [1, Fraction(1, 2), Fraction(1, 3)])
        with pytest.raises(Exception):
            run_method(bad, "adams", 1)

    def test_method_accepts_string_names(self, sym7):
        for name in ("adams", "jefferson", "quota", "ucquota"):
            assert run_method(sym7, name, 3).method is MethodKind(name)

    def test_deterministic(self, deep7):
        for method in MethodKind:
            a = run_method(deep7, method, 11)
            b = run_method(deep7, method, 11)
            assert a.final == b.final and a.paths == b.paths


def assert_path_is_root_to_leaf(inst: Instance, path: tuple[int, ...]) -> None:
    assert path[0] == 0
    for parent, child in zip(path, path[1:]):
        assert inst.parents[child] == parent
    assert not inst.children[path[-1]]


class TestPerStepLaws:
    @given(irregular_instances(), method_kinds, st.integers(1, 25))
    def test_paths_are_root_to_leaf_chains(self, inst, method, h):
        traj = run_method(inst, method, h)
        for path in traj.paths:
            assert_path_is_root_to_leaf(inst, path)

    @given(irregular_instances(), method_kinds, st.integers(1, 25))
    def test_house_monotone_and_flow_conserving(self, inst, method, h):
        traj = run_method(inst, method, h)
        previous = None
        for alloc in traj.allocations():
            assert check_allocation(inst, alloc).flow_violations == ()
            if previous is not None:
                assert all(a <= b for a, b in zip(previous.seats, alloc.seats))
                assert sum(alloc.seats) == sum(previous.seats) + len(
                    traj.paths[previous.h]
                )
            previous = alloc

    @given(irregular_instances(), st.integers(1, 25))
    def test_adams_path_ratio_chain(self, inst, h):
        # Before each seat lands, seats-per-share never increases down the
        # chosen path: the child picked at every level had the smallest
        # ratio, and its parent was picked the same way one level up.
        shares = relative_entitlements(inst)
        traj = run_method(inst, MethodKind.ADAMS, h)
        for alloc, path in zip(traj.allocations(), traj.paths):
            seats = alloc.seats
            for up, down in zip(path, path[1:]):
                assert seats[up] / shares[up] >= seats[down] / shares[down]

    @given(irregular_instances(), st.integers(1, 25))
    def test_jefferson_parent_child_bound(self, inst, h):
        # After any number of seats, no child is due a seat before its
        # parent: (V_c + 1) / R_c >= (V_p + 1) / R_p everywhere.
        shares = relative_entitlements(inst)
        for method in (MethodKind.JEFFERSON, MethodKind.QUOTA):
            traj = run_method(inst, method, h)
            for alloc in traj.allocations():
                seats = alloc.seats
                for c in range(1, inst.n):
                    p = inst.parents[c]
                    assert (seats[c] + 1) / shares[c] >= (seats[p] + 1) / shares[p]

    @given(irregular_instances(), st.integers(1, 25))
    def test_adams_upper_quota_every_step(self, inst, h):
        traj = run_method(inst, MethodKind.ADAMS, h)
        for alloc in traj.allocations():
            assert check_allocation(inst, alloc).upper_violation_count == 0

    @given(irregular_instances(), st.integers(1, 25))
    def test_jefferson_and_quota_lower_quota_every_step(self, inst, h):
        for method in (MethodKind.JEFFERSON, MethodKind.QUOTA):
            traj = run_method(inst, method, h)
            for alloc in traj.allocations():
                assert check_allocation(inst, alloc).lower_violation_count == 0

    @given(irregular_instances(), st.integers(1, 25))
    def test_uc_quota_upper_quota_every_step(self, inst, h):
        traj = run_method(inst, MethodKind.UC_QUOTA, h)
        for alloc in traj.allocations():
            assert check_allocation(inst, alloc).upper_violation_count == 0


class TestBinaryEquivalence:
    @given(st.integers(1, 4), st.integers(0, 2**64 - 1), st.integers(0, 60))
    def test_jefferson_equals_quota_on_binary_trees(self, height, seed, h):
        inst = random_instance(TreeFamily(TreeKind.PERFECT_BINARY, height), seed)
        a = run_method(inst, MethodKind.JEFFERSON, h)
        b = run_method(inst, MethodKind.QUOTA, h)
        assert a.final == b.final
        assert a.paths == b.paths

    def test_also_on_the_symmetric_tree(self, sym7):
        a = run_method(sym7, MethodKind.JEFFERSON, 40)
        b = run_method(sym7, MethodKind.QUOTA, 40)
        assert a.paths == b.paths


class TestSingleLevelOracles:
    @given(share_lists(), st.integers(0, 30))
    def test_adams_matches_reference(self, shares, h):
        got = run_method(flat_instance(shares), MethodKind.ADAMS, h).final.seats
        assert list(got[1:]) == adams_single_level(shares, h)

    @given(share_lists(), st.integers(0, 30))
    def test_jefferson_matches_reference(self, shares, h):
        got = run_method(flat_instance(shares), MethodKind.JEFFERSON, h).final.seats
        assert list(got[1:]) == jefferson_single_level(shares, h)

    @given(share_lists(), st.integers(0, 30))
    def test_quota_matches_reference(self, shares, h):
        got = run_method(flat_instance(shares), MethodKind.QUOTA, h).final.seats
        assert list(got[1:]) == quota_single_level(shares, h)

    @given(share_lists(), st.integers(0, 30))
    def test_uc_quota_collapses_to_quota_on_one_level(self, shares, h):
        # With only the root above them, the threshold and the share bound
        # admit exactly the same children.
        inst = flat_instance(shares)
        a = run_method(inst, MethodKind.UC_QUOTA, h)
        b = run_method(inst, MethodKind.QUOTA, h)
        assert a.final == b.final and a.paths == b.paths


class TestStepFunctions:
    def test_step_returns_new_allocation_and_path(self, sym7):
        alloc = Allocation(0, (0,) * 7)
        nxt, path = step(sym7, alloc, MethodKind.ADAMS)
        assert nxt.h == 1
        assert sum(nxt.seats) - sum(alloc.seats) == len(path)
        assert alloc.seats == (0,) * 7

    def test_steps_compose_into_run(self, deep7):
        for method in MethodKind:
            alloc = Allocation(0, (0,) * 7)
            paths = []
            for _ in range(7):
                alloc, path = step(deep7, alloc, method)
                paths.append(path)
            traj = run_method(deep7, method, 7)
            assert alloc == traj.final
            assert tuple(paths) == traj.paths

    def test_no_eligible_child_on_corrupted_seats(self, nested5):
        # Seats that do not conserve flow (children already hold more than
        # the root) can strand the quota walk; the guard names the method,
        # the stuck node, and the house size it was stepping toward.
        corrupted = Allocation(0, (0, 1, 1, 1, 0))
        with pytest.raises(NoEligibleChild) as exc:
            step(nested5, corrupted, MethodKind.QUOTA)
        assert exc.value.method is MethodKind.QUOTA
        assert exc.value.node == 0
        assert exc.value.house == 0
        assert str(exc.value) == "quota: no eligible child under node 0 when assigning seat 1"
        assert corrupted.seats == (0, 1, 1, 1, 0)

    def test_no_eligible_child_under_the_inherited_cap(self, nested5):
        # The root's cap of 6 seats per weight admits node 1; its own count
        # of 1 then caps node 1's children, which already hold a seat each.
        # The seat has already raised the root and node 1 when the walk
        # gets stuck, yet the reported house is the one before it.
        corrupted = Allocation(5, (5, 0, 0, 1, 1))
        with pytest.raises(NoEligibleChild) as exc:
            step(nested5, corrupted, MethodKind.UC_QUOTA)
        assert exc.value.method is MethodKind.UC_QUOTA
        assert exc.value.node == 1
        assert exc.value.house == 5
        assert str(exc.value) == "ucquota: no eligible child under node 1 when assigning seat 6"
        assert corrupted.seats == (5, 0, 0, 1, 1)


def reversed_children(inst: Instance) -> Instance:
    """The same tree with every child list in descending id order."""
    return Instance(inst.parents, inst.weights, [tuple(reversed(k)) for k in inst.children])


class TestGlobalShareReference:
    """The walk ranks siblings by parent-relative weight under one cap on
    seats per weight; the walk that ranks them by shares of the house and
    carries a seats-per-share threshold must pick every path alike."""

    @given(irregular_instances(), method_kinds, st.integers(0, 300), st.booleans())
    def test_walk_matches_reference(self, inst, method, h, flip):
        if flip:
            inst = reversed_children(inst)
        assert _walk(inst, method, h) == walk_by_global_shares(inst, method, h)

    @given(
        irregular_instances(),
        method_kinds,
        method_kinds,
        st.integers(0, 300),
        st.booleans(),
    )
    def test_step_from_mid_run_matches_reference(self, inst, earlier, method, k, flip):
        # Counts reached by any method conserve flow, so every method can
        # step on from them.
        if flip:
            inst = reversed_children(inst)
        seats, _ = walk_by_global_shares(inst, earlier, k)
        alloc = Allocation(k, tuple(seats))
        expected, (path,) = walk_by_global_shares(inst, method, 1, seats)
        assert step(inst, alloc, method) == (Allocation(k + 1, tuple(expected)), path)
        assert alloc.seats == tuple(seats)


CASCADE_KINDS = (MethodKind.ADAMS, MethodKind.JEFFERSON, MethodKind.QUOTA)


class TestLevelCascade:
    """``final`` of Adams, Jefferson and quota is computed level by level;
    the seat-by-seat walk is the reference it must match exactly."""

    @given(irregular_instances(), st.sampled_from(CASCADE_KINDS), st.integers(0, 1000))
    def test_final_matches_the_walk(self, inst, method, h):
        traj = run_method(inst, method, h)
        walked, _ = _walk(inst, method, h)
        assert traj.final.seats == tuple(walked)
        assert traj.allocation_at(h) == traj.final

    @given(irregular_instances(), st.sampled_from(CASCADE_KINDS), st.integers(0, 300))
    def test_ties_follow_node_ids_not_child_order(self, inst, method, h):
        flipped = reversed_children(inst)
        walked, _ = _walk(flipped, method, h)
        assert run_method(flipped, method, h).final.seats == tuple(walked)

    @given(
        share_lists(max_parties=30, max_weight=1000),
        st.sampled_from(CASCADE_KINDS),
        st.one_of(st.integers(0, 30), st.integers(0, 400)),
        st.booleans(),
    )
    def test_wide_nodes_match_the_walk(self, shares, method, h, flip):
        # Many children: the divisor methods give out up to b last seats
        # one at a time and quota walks the node seat by seat.  Houses no
        # bigger than the node keep Adams children at zero, where weight
        # breaks ties.
        inst = flat_instance(shares)
        if flip:
            inst = reversed_children(inst)
        walked, _ = _walk(inst, method, h)
        assert run_method(inst, method, h).final.seats == tuple(walked)

    def test_paths_are_walked_once_on_demand(self, deep7):
        traj = run_method(deep7, MethodKind.ADAMS, 9)
        assert "paths" not in vars(traj)
        assert traj.paths is traj.paths
        assert traj.paths == _walk(deep7, MethodKind.ADAMS, 9)[1]

    def test_uc_quota_carries_its_paths(self, deep7):
        traj = run_method(deep7, MethodKind.UC_QUOTA, 9)
        assert vars(traj)["paths"] == _walk(deep7, MethodKind.UC_QUOTA, 9)[1]

    @pytest.mark.parametrize(
        "method, kind, height",
        [
            (MethodKind.ADAMS, TreeKind.FULL_4ARY, 3),
            (MethodKind.JEFFERSON, TreeKind.FULL_4ARY, 3),
            (MethodKind.QUOTA, TreeKind.PERFECT_BINARY, 6),
        ],
    )
    def test_million_seat_house(self, method, kind, height):
        inst = random_instance(TreeFamily(kind, height), 11)
        final = run_method(inst, method, 10**6).final
        report = check_allocation(inst, final)
        assert final.seats[0] == 10**6
        assert report.flow_violations == ()
        if method is MethodKind.ADAMS:
            assert report.upper_violation_count == 0
        else:
            assert report.lower_violation_count == 0


PERIODIC_KINDS = (MethodKind.JEFFERSON, MethodKind.QUOTA, MethodKind.UC_QUOTA)


class TestWholeTreePeriod:
    """With ``L`` the lcm of the share denominators, ``L * R_i`` is a whole
    number of seats for every node.  Jefferson, quota and UC-quota reach
    exactly those counts at ``h = L`` and then repeat their walk from an
    empty house, shifted by ``L * R``.  Adams is left out: its zero-seat
    tie rule makes it not periodic from ``h = 0``."""

    @given(irregular_instances(max_nodes=8, max_weight=3), st.sampled_from(PERIODIC_KINDS), st.data())
    def test_walk_repeats_every_period(self, inst, method, data):
        shares = relative_entitlements(inst)
        period = math.lcm(*(s.denominator for s in shares))
        assume(period <= 120)
        base = [s * period for s in shares]
        assert _walk(inst, method, period)[0] == base
        r = data.draw(st.integers(0, period))
        seats, paths = _walk(inst, method, period + r)
        rest, rest_paths = _walk(inst, method, r)
        assert seats == [b + v for b, v in zip(base, rest)]
        assert paths[period:] == rest_paths
        assert run_method(inst, method, period + r).final.seats == tuple(seats)


class TestValidationOnce:
    def test_valid_instance_is_validated_once(self, deep7, monkeypatch):
        calls = []
        original = core.validate_instance
        monkeypatch.setattr(core, "validate_instance", lambda inst: calls.append(1) or original(inst))
        for method in MethodKind:
            for h in (0, 5, 9):
                run_method(deep7, method, h)
        assert len(calls) == 1

    def test_invalid_instance_raises_on_every_call(self):
        bad = Instance([None, 0, 0], [1, Fraction(1, 2), Fraction(1, 3)])
        for method in MethodKind:
            with pytest.raises(InvalidInstanceError):
                run_method(bad, method, 3)
