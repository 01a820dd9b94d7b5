"""The binary rewrite and the both-quotas allocator, checked against an exhaustive oracle."""

from __future__ import annotations

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from apportree import (
    Allocation,
    Instance,
    SizeLimitExceeded,
    TreeFamily,
    TreeKind,
    allocate_both_quotas,
    brute_force_both_quotas,
    check_allocation,
    instance_from_json,
    instance_to_json,
    random_instance,
    relative_entitlements,
    to_full_binary,
    trace_both_quotas,
)

import apportree.core as core

from conftest import ancestors_of, flat_instance, irregular_instances, share_lists
from oracles import binary_by_rescaling


def assert_full_binary(inst: Instance) -> None:
    for i in range(inst.n):
        assert len(inst.children[i]) in (0, 2)


class TestToFullBinary:
    def test_flat_four_way_split(self):
        quarter = Fraction(1, 4)
        flat = Instance([None, 0, 0, 0, 0], [1, quarter, quarter, quarter, quarter])
        red = to_full_binary(flat)
        assert red.reduced.parents == (None, 0, 5, 6, 6, 0, 5)
        assert red.reduced.weights == (
            Fraction(1),
            Fraction(1, 4),
            Fraction(1, 3),
            Fraction(1, 2),
            Fraction(1, 2),
            Fraction(3, 4),
            Fraction(2, 3),
        )
        assert red.node_map == (0, 1, 2, 3, 4)
        assert red.introduced == (5, 6)
        assert_full_binary(red.reduced)

    def test_already_binary_is_untouched(self, sym7):
        red = to_full_binary(sym7)
        assert red.reduced == sym7
        assert red.node_map == tuple(range(7))
        assert red.introduced == ()

    def test_only_child_merges_into_parent(self):
        inst = Instance([None, 0, 1, 1], [1, 1, Fraction(1, 2), Fraction(1, 2)])
        red = to_full_binary(inst)
        assert red.reduced.n == 3
        assert red.node_map == (0, 0, 1, 2)
        assert red.reduced.weights == (Fraction(1), Fraction(1, 2), Fraction(1, 2))

    def test_pure_chain_collapses_to_a_point(self):
        chain = Instance([None, 0, 1, 2], [1, 1, 1, 1])
        red = to_full_binary(chain)
        assert red.reduced.n == 1
        assert red.node_map == (0, 0, 0, 0)

    def test_loaded_instance_is_validated_once(self, deep7, monkeypatch):
        calls = []
        original = core.validate_instance
        monkeypatch.setattr(core, "validate_instance", lambda inst: calls.append(1) or original(inst))
        inst = instance_from_json(instance_to_json(deep7))
        trace_both_quotas(inst, 5)
        allocate_both_quotas(inst, 7)
        assert len(calls) == 1

    @given(st.one_of(irregular_instances(max_nodes=40), share_lists(30, 1000).map(flat_instance)))
    def test_matches_rescaling_reference(self, inst):
        red = to_full_binary(inst)
        reduced, node_map, introduced = binary_by_rescaling(inst)
        assert red.reduced == reduced
        assert red.node_map == node_map
        assert red.introduced == introduced

    @given(irregular_instances())
    def test_reduced_tree_is_valid_full_binary(self, inst):
        red = to_full_binary(inst)
        from apportree import validate_instance

        assert validate_instance(red.reduced) == []
        assert_full_binary(red.reduced)

    @given(irregular_instances())
    def test_shares_are_preserved_exactly(self, inst):
        red = to_full_binary(inst)
        before = relative_entitlements(inst)
        after = relative_entitlements(red.reduced)
        for i in range(inst.n):
            assert before[i] == after[red.node_map[i]]

    @given(irregular_instances())
    def test_ancestor_relations_survive(self, inst):
        red = to_full_binary(inst)
        for j in range(1, inst.n):
            image = red.node_map[j]
            reachable = {image} | set(ancestors_of(red.reduced, image))
            for a in ancestors_of(inst, j):
                assert red.node_map[a] in reachable


class TestBothQuotas:
    def test_sym7_forced_split(self, sym7):
        alloc = allocate_both_quotas(sym7, 6)
        assert alloc.seats[5] == alloc.seats[6] == 3
        assert check_allocation(sym7, alloc).ok

    def test_single_node(self, single):
        assert allocate_both_quotas(single, 17).seats == (17,)

    def test_deep7_is_violation_free_where_methods_are_not(self, deep7):
        alloc = allocate_both_quotas(deep7, 5)
        report = check_allocation(deep7, alloc)
        assert report.ok
        assert alloc in brute_force_both_quotas(deep7, 5)

    def test_rejects_bad_house(self, sym7):
        for h in (-1, 2.0, True, False):
            with pytest.raises(ValueError):
                allocate_both_quotas(sym7, h)
            with pytest.raises(ValueError):
                trace_both_quotas(sym7, h)

    @given(irregular_instances(), st.integers(0, 60))
    def test_never_violates_either_quota(self, inst, h):
        alloc = allocate_both_quotas(inst, h)
        report = check_allocation(inst, alloc)
        assert report.flow_violations == ()
        assert report.lower_violation_count == 0
        assert report.upper_violation_count == 0

    @settings(max_examples=30)
    @given(
        st.sampled_from(list(TreeKind)),
        st.integers(1, 4),
        st.integers(0, 2**64 - 1),
        st.integers(0, 500),
    )
    def test_never_violates_on_family_instances(self, kind, height, seed, h):
        inst = random_instance(TreeFamily(kind, height), seed)
        alloc = allocate_both_quotas(inst, h)
        assert check_allocation(inst, alloc).ok

    @given(irregular_instances(), st.integers(0, 60))
    def test_trace_intervals_and_choices(self, inst, h):
        alloc, red, intervals = trace_both_quotas(inst, h)
        reduced_seats = red.push_forward(alloc).seats
        by_node = {}
        for iv in intervals:
            assert iv.low <= iv.high
            by_node[iv.node] = iv
        for iv in by_node.values():
            v = reduced_seats[iv.node]
            assert iv.low <= v <= iv.high
            # nearest integer to the target, ties broken downward, then
            # clamped into the feasible interval
            nearest = -((-(2 * iv.target.numerator - iv.target.denominator)) // (2 * iv.target.denominator))
            expected = min(max(nearest, iv.low), iv.high)
            assert v == expected

    @given(irregular_instances(), st.integers(0, 60))
    def test_ancestor_houses_stay_within_one_seat(self, inst, h):
        # Every ancestor's seats-per-share ratio implies a house size for a
        # node; once all ancestors sit within both quotas those implied
        # strict shares span strictly less than one seat, which is why a
        # feasible integer always exists.
        alloc, red, _ = trace_both_quotas(inst, h)
        reduced = red.reduced
        seats = red.push_forward(alloc).seats
        shares = relative_entitlements(reduced)
        for c in range(1, reduced.n):
            implied = [
                shares[c] * Fraction(seats[a]) / shares[a] for a in ancestors_of(reduced, c)
            ]
            assert max(implied) - min(implied) < 1

    @given(irregular_instances(), st.integers(0, 60))
    def test_push_forward_round_trip(self, inst, h):
        alloc, red, _ = trace_both_quotas(inst, h)
        forward = red.push_forward(alloc)
        assert red.pull_back(forward) == alloc


def enumerate_flows(inst: Instance, h: int):
    """Every flow-conserving allocation, by brute product over splits."""
    seats = [0] * inst.n
    seats[0] = h

    def compositions(total, k):
        if k == 1:
            yield (total,)
            return
        for first in range(total + 1):
            for rest in compositions(total - first, k - 1):
                yield (first,) + rest

    def recurse(order_pos, order):
        if order_pos == len(order):
            yield tuple(seats)
            return
        i = order[order_pos]
        kids = inst.children[i]
        if not kids:
            yield from recurse(order_pos + 1, order)
            return
        for combo in compositions(seats[i], len(kids)):
            for c, v in zip(kids, combo):
                seats[c] = v
            yield from recurse(order_pos + 1, order)

    yield from recurse(0, inst.bfs_order())


class TestBruteForce:
    def test_zero_house_is_all_zero(self, deep7):
        assert brute_force_both_quotas(deep7, 0) == (Allocation(0, (0,) * 7),)

    def test_sym7_members_all_forced(self, sym7):
        results = brute_force_both_quotas(sym7, 6)
        assert results
        for alloc in results:
            assert alloc.seats[5] == alloc.seats[6] == 3

    def test_nested5_excludes_the_overfull_branch(self, nested5):
        results = brute_force_both_quotas(nested5, 5)
        assert results
        assert all(alloc.seats[3] != 5 for alloc in results)

    def test_size_limits(self, sym7):
        with pytest.raises(SizeLimitExceeded):
            brute_force_both_quotas(sym7, 3, max_nodes=5)
        with pytest.raises(SizeLimitExceeded):
            brute_force_both_quotas(sym7, 11)

    @settings(max_examples=40)
    @given(irregular_instances(max_nodes=7), st.integers(0, 5))
    def test_equals_filtering_all_flows(self, inst, h):
        got = brute_force_both_quotas(inst, h)
        expected = tuple(
            Allocation(h, seats)
            for seats in enumerate_flows(inst, h)
            if check_allocation(inst, Allocation(h, seats)).ok
        )
        assert set(got) == set(expected)
        assert len(got) == len(expected)

    @settings(max_examples=40)
    @given(irregular_instances(max_nodes=7), st.integers(0, 5))
    def test_oracle_nonempty_and_contains_construction(self, inst, h):
        results = brute_force_both_quotas(inst, h)
        assert results
        assert allocate_both_quotas(inst, h) in results
