"""Instance model, validation, quota bounds, checker, JSON formats."""

from __future__ import annotations

import copy
import inspect
import json
import math
import os
import pickle
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from apportree import (
    ALL_METHODS,
    CHILDREN_WEIGHTS_NOT_NORMALIZED,
    NON_TREE,
    WEIGHT_OUT_OF_RANGE,
    Allocation,
    BinaryReduction,
    ExperimentConfig,
    FeasibleInterval,
    Instance,
    InvalidInstanceError,
    MethodKind,
    MetricsTable,
    QuotaBounds,
    QuotaMode,
    QuotaReport,
    StructuralError,
    TableRow,
    Trajectory,
    TreeFamily,
    TreeKind,
    UnsupportedHeight,
    build_tree,
    allocation_from_json,
    allocation_to_json,
    check_allocation,
    count_violations,
    instance_from_json,
    instance_to_json,
    parse_instance_document,
    parse_weight,
    relative_entitlements,
    require_valid,
    run_method,
    step,
    to_full_binary,
    validate_instance,
)

import apportree.core as core

from conftest import ancestors_of, definitional_bounds, flat_instance, irregular_instances, make_sym7, share_lists
from oracles import shares_by_products, validate_by_root_walks


class NodeId(int):
    """An int subclass, which the validator takes as a node id."""


class Share(Fraction):
    """A Fraction subclass, which Instance keeps as it is."""


@st.composite
def malformed_instances(draw) -> Instance:
    """Instances that may break any tree rule the validator names.

    Starts from a valid tree or from random parents.  Then either hangs a
    subtree below one of its own nodes (a cycle cut off from the root), or
    points nodes at arbitrary parents (self-parents, out-of-range or bool
    ids), keeps or redraws the child lists (inconsistent lists, child id 0,
    negative ids, ids past ``n``, bools, strings and ``None``, repeats) and
    redraws weights (outside (0, 1], so sibling sums stop adding up).
    """
    base = draw(irregular_instances(max_nodes=8))
    parents, weights, children = list(base.parents), list(base.weights), None
    n = len(parents)
    if draw(st.booleans()):
        top = draw(st.integers(1, n - 1))
        subtree = [top]
        for i in subtree:
            subtree.extend(base.children[i])
        parents[top] = draw(st.sampled_from(subtree[1:] or subtree))
        return Instance(parents, weights)
    if draw(st.booleans()):
        parents = [None] + [draw(st.integers(0, n - 1)) for _ in range(n - 1)]
    elif draw(st.booleans()):
        children = list(base.children)
    parent_ids = st.one_of(st.none(), st.integers(-1, n), st.booleans())
    for i in draw(st.lists(st.integers(0, n - 1), max_size=3)):
        parents[i] = draw(parent_ids)
    if draw(st.booleans()):
        child_ids = st.one_of(
            st.integers(-n, n + 2), st.booleans(), st.sampled_from(["x", None, 1.0])
        )
        children = draw(st.lists(st.lists(child_ids, max_size=3), min_size=n, max_size=n))
    fractions = st.fractions(min_value=-1, max_value=2, max_denominator=6)
    for i in draw(st.lists(st.integers(0, n - 1), max_size=3)):
        weights[i] = draw(fractions)
    return Instance(parents, weights, children)


def bfs_order_succeeds(inst: Instance) -> bool:
    try:
        inst.bfs_order()
    except InvalidInstanceError:
        return False
    return True


class TestParseWeight:
    def test_integer(self):
        assert parse_weight("1") == Fraction(1)
        assert parse_weight("7") == Fraction(7)

    def test_fraction(self):
        assert parse_weight("1/2") == Fraction(1, 2)
        assert parse_weight("3/20") == Fraction(3, 20)
        assert parse_weight(" 8/9 ") == Fraction(8, 9)

    def test_unreduced_fraction_is_fine(self):
        assert parse_weight("2/4") == Fraction(1, 2)

    @pytest.mark.parametrize("bad", ["0.5", "1e-3", "-1/2", "1/-2", "", "a/b", "1/2/3"])
    def test_rejects_non_rational_strings(self, bad):
        with pytest.raises(ValueError):
            parse_weight(bad)

    def test_rejects_zero_denominator(self):
        with pytest.raises(ValueError):
            parse_weight("1/0")

    @pytest.mark.parametrize("bad", ["\u0663/\u0664", "\u0661", "\uff11/\uff12"])
    def test_rejects_non_ascii_digits(self, bad):
        with pytest.raises(ValueError):
            parse_weight(bad)


class TestInstanceBasics:
    def test_children_derived_from_parents(self, sym7):
        assert sym7.children[0] == (5, 6)
        assert sym7.children[5] == (1, 2)
        assert sym7.children[6] == (3, 4)
        assert sym7.children[1] == ()

    def test_n_and_leaves(self, sym7):
        assert sym7.n == 7
        assert [i for i in range(7) if not sym7.children[i]] == [1, 2, 3, 4]

    def test_weight_coercion(self):
        inst = Instance(parents=[None, 0, 0], weights=[1, "1/2", Fraction(1, 2)])
        assert inst.weights == (Fraction(1), Fraction(1, 2), Fraction(1, 2))

    def test_weights_all_fractions_are_kept(self):
        weights = [Fraction(1), Fraction(1, 3), Fraction(2, 3)]
        inst = Instance(parents=[None, 0, 0], weights=iter(weights))
        assert all(w is v for w, v in zip(inst.weights, weights))
        mixed = Instance(parents=[None, 0, 0], weights=[Fraction(1), Fraction(1, 3), "2/3"])
        assert mixed.weights == tuple(weights)
        assert all(type(w) is Fraction for w in mixed.weights)

    # a bool was read as 1, and 0.1 + 0.9 summed to 36028797018963969/36028797018963968
    @pytest.mark.parametrize("bad", [True, False, 0.1, None, [1], (1, 2)], ids=repr)
    def test_other_weight_types_are_refused_by_node(self, bad):
        with pytest.raises(ValueError, match=r"^weight of node 1 must be an int, a Fraction or a 'p/q' string, got "):
            Instance([None, 0, 0], [1, bad, 0.9])

    @pytest.mark.parametrize("children", [[[1]], [[1], [], []]], ids=["too-few", "too-many"])
    def test_children_need_one_list_per_node(self, children):
        with pytest.raises(ValueError, match="one list per node"):
            Instance([None, 0], [1, 1], children)

    @pytest.mark.parametrize(
        "parents, weights, message",
        [([], [], "at least the root node"), ([None], [1, 1], "equal length")],
        ids=["empty", "weights-too-many"],
    )
    def test_parents_and_weights_need_one_entry_per_node(self, parents, weights, message):
        with pytest.raises(ValueError, match=message):
            Instance(parents, weights)

    def test_ancestors_root_is_its_own(self, sym7):
        assert ancestors_of(sym7, 0) == [0]

    def test_ancestors_proper_chain(self, deep7):
        assert ancestors_of(deep7, 5) == [3, 1, 0]
        assert ancestors_of(deep7, 1) == [0]

    def test_bfs_order_parents_first(self, deep7):
        order = deep7.bfs_order()
        seen = set()
        for i in order:
            p = deep7.parents[i]
            assert p is None or p in seen
            seen.add(i)
        assert sorted(order) == list(range(deep7.n))

    def test_equality_and_hash(self, sym7):
        other = make_sym7()
        assert sym7 == other
        assert hash(sym7) == hash(other)
        assert sym7 != Instance([None], [1])
        # another type is left to its own comparison, so it is unequal
        assert sym7.__eq__(object()) is NotImplemented
        assert (sym7 == object(), sym7 != object()) == (False, True)


class TestValidation:
    def test_good_instances_pass(self, sym7, flat5, nested5, deep7, single):
        for inst in (sym7, flat5, nested5, deep7, single):
            assert validate_instance(inst) == []
            assert require_valid(inst) is inst

    def test_single_child_weight_one_is_valid(self):
        inst = Instance([None, 0, 1], [1, 1, 1])
        assert validate_instance(inst) == []

    def test_root_with_parent(self):
        inst = Instance([0, 0], [1, 1])
        kinds = {e.kind for e in validate_instance(inst)}
        assert NON_TREE in kinds

    def test_missing_parent(self):
        inst = Instance([None, None], [1, 1])
        errs = validate_instance(inst)
        assert any(e.kind == NON_TREE and e.node == 1 for e in errs)

    def test_parent_out_of_range(self):
        inst = Instance([None, 9], [1, 1])
        assert any(e.kind == NON_TREE for e in validate_instance(inst))

    def test_cycle_detected(self):
        inst = Instance([None, 2, 1], [1, Fraction(1, 2), Fraction(1, 2)])
        errs = validate_instance(inst)
        assert any(e.kind == NON_TREE and "cycle" in e.message for e in errs)

    def test_root_weight_must_be_one(self):
        inst = Instance([None, 0], [Fraction(1, 2), 1])
        errs = validate_instance(inst)
        assert any(e.kind == WEIGHT_OUT_OF_RANGE and e.node == 0 for e in errs)

    @pytest.mark.parametrize("w", [0, Fraction(-1, 2), 2])
    def test_weight_outside_unit_interval(self, w):
        inst = Instance([None, 0, 0], [1, w, Fraction(1, 2)])
        errs = validate_instance(inst)
        assert any(e.kind == WEIGHT_OUT_OF_RANGE and e.node == 1 for e in errs)

    def test_sibling_weights_must_sum_to_one(self):
        inst = Instance([None, 0, 0], [1, Fraction(1, 2), Fraction(1, 3)])
        errs = validate_instance(inst)
        assert len(errs) == 1
        assert errs[0].kind == CHILDREN_WEIGHTS_NOT_NORMALIZED
        assert errs[0].node == 0
        assert "5/6" in errs[0].message

    def test_require_valid_raises_with_errors(self):
        inst = Instance([None, 0, 0], [1, Fraction(1, 2), Fraction(1, 3)])
        with pytest.raises(InvalidInstanceError) as exc:
            require_valid(inst)
        assert exc.value.errors[0].kind == CHILDREN_WEIGHTS_NOT_NORMALIZED

    def test_require_valid_remembers_success_only(self, monkeypatch):
        calls = []
        original = core.validate_instance
        monkeypatch.setattr(core, "validate_instance", lambda inst, **kw: calls.append(inst) or original(inst, **kw))
        good = make_sym7()
        assert require_valid(good) is good
        assert require_valid(good) is good
        assert len(calls) == 1
        bad = Instance([None, 0, 0], [1, Fraction(1, 2), Fraction(1, 3)])
        for _ in range(2):
            with pytest.raises(InvalidInstanceError):
                require_valid(bad)
        assert len(calls) == 3

    @given(irregular_instances())
    def test_strategy_instances_are_valid(self, inst):
        assert validate_instance(inst) == []

    @given(malformed_instances())
    # a bool parent that names the node listing it
    @example(Instance([None, 0, True], [1, 1, 1]))
    # a child listed twice while its sibling is listed nowhere
    @example(Instance([None, 0, 0], [1, Fraction(1, 2), Fraction(1, 2)], children=[[1, 1], [], []]))
    # an int subclass is an int parent
    @example(Instance([None, NodeId(0)], [1, 1]))
    # but an int-subclass child id is not a child id
    @example(Instance([None, 0, 0], [1, Fraction(1, 2), Fraction(1, 2)], children=[[1, NodeId(2)], [], []]))
    def test_matches_root_walk_reference(self, inst):
        assert validate_instance(inst) == validate_by_root_walks(inst)

    @given(malformed_instances())
    # a cycle the child lists reach from the root
    @example(Instance([None, 0], [1, 1], [[1], [1]]))
    # two nodes that are each other's parent, cut off from the root
    @example(Instance([None, 2, 1], [1, 1, 1]))
    def test_bfs_order_meets_every_node_once_or_raises_the_report(self, inst):
        errors = validate_instance(inst)
        try:
            order = inst.bfs_order()
        except InvalidInstanceError as exc:
            assert exc.errors == errors != []
            with pytest.raises(InvalidInstanceError):
                instance_to_json(inst)
        else:
            assert sorted(order) == list(range(inst.n))
            if not errors:
                # the writer's walk and validation's walk agree
                assert order == tuple(require_valid(inst)._fast[0])


class TestEntitlements:
    def test_sym7_shares(self, sym7):
        shares = relative_entitlements(sym7)
        assert shares[0] == 1
        assert shares[5] == shares[6] == Fraction(1, 2)
        assert all(shares[i] == Fraction(1, 4) for i in (1, 2, 3, 4))

    def test_deep7_shares(self, deep7):
        shares = relative_entitlements(deep7)
        assert shares[3] == Fraction(8, 9) * Fraction(9, 10)
        assert shares[5] == Fraction(32, 45)

    def test_strict_quota(self, nested5):
        shares = relative_entitlements(nested5)
        assert shares[3] * 5 == Fraction(320, 81)
        assert shares[0] * 7 == 7

    @given(irregular_instances())
    def test_leaf_shares_sum_to_one(self, inst):
        shares = relative_entitlements(inst)
        assert sum(shares[i] for i in range(inst.n) if not inst.children[i]) == 1

    @given(irregular_instances())
    def test_share_is_weight_times_parent_share(self, inst):
        shares = relative_entitlements(inst)
        for i in range(1, inst.n):
            assert shares[i] == inst.weights[i] * shares[inst.parents[i]]

    @given(irregular_instances(max_nodes=30, max_weight=1000))
    def test_fast_arrays_equal_fraction_products(self, inst):
        _, _, rnum, rden, _, _, _ = require_valid(inst)._fast
        expected = shares_by_products(inst)
        assert list(zip(rnum, rden)) == [(s.numerator, s.denominator) for s in expected]
        assert relative_entitlements(inst) == tuple(expected)

    @given(irregular_instances(max_nodes=30, max_weight=1000))
    def test_loaded_arrays_equal_api_arrays(self, inst):
        # the loader's validating walk builds the arrays from the Fractions it parsed
        loaded = instance_from_json(instance_to_json(inst))
        assert loaded._fast == require_valid(Instance(inst.parents, inst.weights))._fast
        _, _, rnum, rden, _, _, _ = loaded._fast
        expected = shares_by_products(inst)
        assert list(zip(rnum, rden)) == [(s.numerator, s.denominator) for s in expected]

    @given(st.one_of(irregular_instances(max_nodes=30, max_weight=1000), share_lists(30, 1000).map(flat_instance)))
    def test_loader_columns_and_public_walk_agree(self, inst):
        # the loader hands the walk integer columns; the public call reads the Fractions
        built = Instance(inst.parents, inst.weights, inst.children)
        assert validate_instance(built) == []
        assert instance_from_json(instance_to_json(inst))._fast == built._fast

    @pytest.mark.parametrize(
        "group, fault",
        [
            (("1/6", "1/3", "1/2"), None),
            (("1/4", "1/4", "1/2"), None),
            (("1/6", "1/6", "1/2"), "children weights sum to 5/6"),
            (("1/2", "1/3", "1/3"), "children weights sum to 7/6"),
        ],
    )
    def test_sibling_groups_loaded_and_built(self, group, fault):
        # the group sits below a node of share 2/3, which cancels against the sixths
        parents = [None, 0, 0, 1, 1, 1]
        weights = ["1", "2/3", "1/3", *group]
        doc = {"nodes": [{"id": i, "parent": p, "weight": w} for i, (p, w) in enumerate(zip(parents, weights))]}
        loaded, loaded_errors = parse_instance_document(doc)
        built = Instance(parents, weights)
        errors = validate_instance(built)
        assert loaded_errors == errors
        if fault is None:
            assert errors == [] and loaded._fast == built._fast
            assert relative_entitlements(loaded)[3:] == tuple(Fraction(2, 3) * Fraction(w) for w in group)
        else:
            assert loaded is None
            assert errors == [StructuralError(CHILDREN_WEIGHTS_NOT_NORMALIZED, 1, fault)]

    def test_disconnected_trees_raise(self):
        cycle = Instance([None, 0, 3, 2], [1, 1, Fraction(1, 2), Fraction(1, 2)])
        with pytest.raises(InvalidInstanceError, match=r"NonTree \(node 2\): node does not reach the root"):
            relative_entitlements(cycle)
        # the child lists reach node 1, whose parent map points at unreached 2
        stray = Instance([None, 2, 1], [1, 1, 1], children=[[1], [], []])
        with pytest.raises(InvalidInstanceError, match=r"NonTree \(node 1\): children list disagrees"):
            relative_entitlements(stray)

    @pytest.mark.parametrize(
        "inst",
        [
            Instance([None, 0], [1, 1], children=[[5], []]),
            Instance([None, 0, 0], [1, Fraction(1, 2), Fraction(1, 3)]),
        ],
        ids=["bad-child-id", "weights-sum-to-5/6"],
    )
    def test_entry_points_validate(self, inst):
        seats = (1,) * inst.n
        calls = [
            lambda: relative_entitlements(inst),
            lambda: check_allocation(inst, Allocation(1, seats)),
            lambda: count_violations(inst, seats),
            lambda: step(inst, Allocation(0, (0,) * inst.n), "adams"),
        ]
        for call in calls:
            with pytest.raises(InvalidInstanceError, match=validate_instance(inst)[0].message):
                call()


def random_seats(inst: Instance, h: int, rand) -> tuple[int, ...]:
    """A flow-conserving random allocation: split each node's seats among
    its children uniformly at random, top-down."""
    seats = [0] * inst.n
    seats[0] = h
    for i in inst.bfs_order():
        kids = inst.children[i]
        if not kids:
            continue
        remaining = seats[i]
        for c in kids[:-1]:
            take = rand.randint(0, remaining)
            seats[c] = take
            remaining -= take
        seats[kids[-1]] = remaining
    return tuple(seats)


class TestQuotaBounds:
    def test_root_bounds_collapse(self, sym7):
        b = check_allocation(sym7, Allocation(6, (6, 2, 1, 2, 1, 3, 3))).bounds[0]
        assert (b.lower, b.upper) == (6, 6)
        assert b.binding_lower_ancestor == b.binding_upper_ancestor == 0

    def test_multi_ancestor_tightening(self, nested5):
        # With V = (5, 5, 0, ?, ?) node 3's parent allows ceil((8/9)*5) = 5
        # but the root allows only ceil((64/81)*5) = 4.
        b = check_allocation(nested5, Allocation(5, (5, 5, 0, 4, 1))).bounds[3]
        assert b.upper == 4
        assert b.binding_upper_ancestor == 0
        assert b.lower == math.floor(Fraction(8, 9) * 5)
        assert b.binding_lower_ancestor == 1

    def test_root_only_mode_is_looser(self, nested5):
        alloc = Allocation(5, (5, 5, 0, 5, 0))
        all_b = check_allocation(nested5, alloc, QuotaMode.ALL_ANCESTORS).bounds[3]
        root_b = check_allocation(nested5, alloc, QuotaMode.ROOT_ONLY).bounds[3]
        assert root_b.lower <= all_b.lower
        assert root_b.upper >= all_b.upper
        assert root_b.binding_lower_ancestor == 0

    def test_equal_ratios_report_topmost_ancestor(self, sym7):
        # Root house 6 and node 5's house 3/(1/2) = 6 tie exactly; the
        # ancestor nearest the root wins the report.
        b = check_allocation(sym7, Allocation(6, (6, 1, 2, 1, 2, 3, 3))).bounds[1]
        assert b.binding_lower_ancestor == 0
        assert b.binding_upper_ancestor == 0

    @given(irregular_instances(), st.integers(0, 40), st.randoms(use_true_random=False))
    def test_root_only_lower_never_exceeds_upper(self, inst, h, rand):
        # With a single constraining ancestor the bounds are floor and ceil
        # of one number.  (Across several ancestors of an arbitrary broken
        # allocation the bounds can cross; they provably cannot once the
        # ancestors themselves sit within quota, which the both-quotas
        # allocator tests assert.)
        report = check_allocation(inst, Allocation(h, random_seats(inst, h, rand)), QuotaMode.ROOT_ONLY)
        for b in report.bounds:
            assert b.lower <= b.upper

    @given(irregular_instances(), st.sampled_from(QuotaMode), st.data())
    def test_quotas_differ_by_at_most_one(self, inst, mode, data):
        # lower is the floor of share * the largest ancestor ratio and upper
        # the ceiling of share * the smallest, so upper - lower <= 1 for any
        # seats, flow or not (the bounds may cross); brute_force_both_quotas'
        # budget rests on it
        seats = data.draw(st.lists(st.integers(0, 10**6), min_size=inst.n, max_size=inst.n))
        for b in check_allocation(inst, Allocation(seats[0], seats), mode).bounds:
            assert b.upper - b.lower <= 1


class TestCheckAllocation:
    def test_clean_allocation(self, sym7):
        report = check_allocation(sym7, Allocation(6, (6, 1, 2, 1, 2, 3, 3)))
        assert report.ok
        assert report.flow_violations == ()
        assert report.lower_violation_count == report.upper_violation_count == 0

    def test_flags_known_violations(self, sym7):
        report = check_allocation(sym7, Allocation(6, (6, 2, 2, 1, 1, 4, 2)))
        assert not report.ok
        assert report.flow_violations == ()
        assert report.upper_violated[5] and report.bounds[5].upper == 3
        assert report.lower_violated[6] and report.bounds[6].lower == 3
        assert report.upper_violation_count == 1
        assert report.lower_violation_count == 1

    def test_flow_violations_reported_not_raised(self, sym7):
        report = check_allocation(sym7, Allocation(7, (6, 2, 1, 2, 1, 3, 3)))
        assert report.flow_violations == (0,)
        report = check_allocation(sym7, Allocation(6, (6, 2, 1, 2, 2, 3, 3)))
        assert 6 in report.flow_violations

    def test_wrong_length_rejected(self, sym7):
        with pytest.raises(ValueError):
            check_allocation(sym7, Allocation(3, (3, 3)))

    @pytest.mark.parametrize("n", [6, 8])
    def test_count_violations_rejects_the_wrong_length(self, sym7, n):
        seats = (6, 1, 2, 1, 2, 3, 3, 0)[:n]
        for mode in QuotaMode:
            with pytest.raises(ValueError, match=f"^allocation has {n} entries for 7 nodes$"):
                count_violations(sym7, seats, mode)

    def test_negative_seats_rejected(self, sym7):
        with pytest.raises(ValueError):
            check_allocation(sym7, Allocation(0, (0, 0, 0, 0, 0, -1, 1)))

    @pytest.mark.parametrize("bad", [-1, True, 1.0, "1", None])
    def test_bad_seat_named_by_node(self, sym7, bad):
        seats = (6, 1, 2, 1, 2, 3, 3)
        alloc = Allocation(6, seats[:4] + (bad,) + seats[5:])
        with pytest.raises(ValueError, match=r"^seat count for node 4 must be a non-negative integer$"):
            check_allocation(sym7, alloc)

    def test_int_subclass_seats_accepted(self, sym7):
        seats = (6, 1, 2, 1, 2, 3, 3)
        report = check_allocation(sym7, Allocation(6, tuple(map(NodeId, seats))))
        assert report == check_allocation(sym7, Allocation(6, seats))

    @given(irregular_instances(), st.integers(0, 40), st.randoms(use_true_random=False))
    def test_flags_match_definition(self, inst, h, rand):
        seats = random_seats(inst, h, rand)
        alloc = Allocation(h, seats)
        for mode in QuotaMode:
            report = check_allocation(inst, alloc, mode)
            assert report.flow_violations == ()
            for i in range(inst.n):
                expected = definitional_bounds(inst, seats, i, mode)
                lo, hi = expected[:2]
                b = report.bounds[i]
                assert report.lower_violated[i] == (seats[i] < lo)
                assert report.upper_violated[i] == (seats[i] > hi)
                assert b.node == i
                assert (
                    b.lower, b.upper, b.binding_lower_ancestor, b.binding_upper_ancestor
                ) == expected

    @given(
        st.one_of(irregular_instances(), irregular_instances(max_weight=1000)),
        st.integers(0, 40),
        st.randoms(use_true_random=False),
    )
    def test_count_violations_agrees_with_report(self, inst, h, rand):
        seats = random_seats(inst, h, rand)
        alloc = Allocation(h, seats)
        for mode in QuotaMode:
            report = check_allocation(inst, alloc, mode)
            low, up = count_violations(inst, seats, mode)
            assert (low, up) == (report.lower_violation_count, report.upper_violation_count)

    def test_one_node_outside_both_quotas_counts_on_both_sides(self):
        # node 3 (share 1/4) holds 10 seats: lower quota 25 from the root's
        # 100, upper quota 5 from node 1's 10
        half = Fraction(1, 2)
        inst = Instance([None, 0, 0, 1, 1], [Fraction(1), half, half, half, half])
        seats = (100, 10, 90, 10, 0)
        report = check_allocation(inst, Allocation(100, seats))
        assert report.flow_violations == ()
        assert (report.bounds[3].lower, report.bounds[3].upper) == (25, 5)
        assert report.lower_violated[3] and report.upper_violated[3]
        for mode, counts in ((QuotaMode.ALL_ANCESTORS, (3, 2)), (QuotaMode.ROOT_ONLY, (3, 1))):
            report = check_allocation(inst, Allocation(100, seats), mode)
            assert count_violations(inst, seats, mode) == counts
            assert (report.lower_violation_count, report.upper_violation_count) == counts

    def test_mode_given_by_its_value(self):
        # the seats of the test above, whose counts differ by mode, so a
        # value read as the other mode would show
        half = Fraction(1, 2)
        inst = Instance([None, 0, 0, 1, 1], [Fraction(1), half, half, half, half])
        seats = (100, 10, 90, 10, 0)
        alloc = Allocation(100, seats)
        for mode, counts in ((QuotaMode.ALL_ANCESTORS, (3, 2)), (QuotaMode.ROOT_ONLY, (3, 1))):
            report = check_allocation(inst, alloc, mode.value)
            assert report == check_allocation(inst, alloc, mode)
            assert report.mode is mode
            assert count_violations(inst, seats, mode.value) == counts
        with pytest.raises(ValueError, match="'bogus' is not a valid QuotaMode"):
            check_allocation(inst, alloc, "bogus")
        with pytest.raises(ValueError, match="'bogus' is not a valid QuotaMode"):
            count_violations(inst, seats, "bogus")


class TestJson:
    def test_round_trip(self, deep7):
        text = instance_to_json(deep7)
        again = instance_from_json(text)
        assert again == deep7

    def test_document_shape(self, sym7):
        doc = json.loads(instance_to_json(sym7))
        assert set(doc) == {"nodes"}
        first = doc["nodes"][0]
        assert first == {"id": 0, "parent": None, "weight": "1"}
        assert all(isinstance(nd["weight"], str) for nd in doc["nodes"])

    def test_nodes_accepted_in_any_order(self):
        doc = {
            "nodes": [
                {"id": 2, "parent": 0, "weight": "1/2"},
                {"id": 0, "parent": None, "weight": "1"},
                {"id": 1, "parent": 0, "weight": "1/2"},
            ]
        }
        inst, errors = parse_instance_document(doc)
        assert errors == []
        assert inst.parents == (None, 0, 0)
        # children keep the order in which the file listed them
        assert inst.children[0] == (2, 1)

    def test_non_dense_ids_rejected(self):
        doc = {"nodes": [{"id": 0, "parent": None, "weight": "1"}, {"id": 2, "parent": 0, "weight": "1"}]}
        inst, errors = parse_instance_document(doc)
        assert inst is None
        assert any(e.kind == NON_TREE for e in errors)

    def test_duplicate_ids_rejected(self):
        doc = {
            "nodes": [
                {"id": 0, "parent": None, "weight": "1"},
                {"id": 1, "parent": 0, "weight": "1/2"},
                {"id": 1, "parent": 0, "weight": "1/2"},
            ]
        }
        inst, errors = parse_instance_document(doc)
        assert inst is None
        assert any("duplicate" in e.message for e in errors)

    def test_int_subclass_ids_and_parents_load_and_bools_do_not(self):
        doc = {
            "nodes": [
                {"id": NodeId(0), "parent": None, "weight": "1"},
                {"id": 1, "parent": NodeId(0), "weight": "1"},
            ]
        }
        inst, errors = parse_instance_document(doc)
        assert errors == []
        assert inst.parents == (None, 0)
        # the id is taken, but a child id must be a plain int
        doc["nodes"][1] = {"id": NodeId(1), "parent": 0, "weight": "1"}
        assert parse_instance_document(doc)[1][0] == StructuralError(NON_TREE, 0, "invalid child id 1")
        doc["nodes"][1] = {"id": True, "parent": 0, "weight": "1"}
        assert parse_instance_document(doc)[1][0].message.startswith("node entry #1 has bad id True")
        doc["nodes"][1] = {"id": 1, "parent": False, "weight": "1"}
        assert parse_instance_document(doc)[1] == [StructuralError(NON_TREE, 1, "bad parent False")]

    def test_decimal_weight_rejected(self):
        doc = {"nodes": [{"id": 0, "parent": None, "weight": "1.0"}]}
        inst, errors = parse_instance_document(doc)
        assert inst is None
        assert any(e.kind == WEIGHT_OUT_OF_RANGE for e in errors)

    def test_each_weight_string_is_parsed_once(self, monkeypatch):
        calls = []
        original = core.parse_weight
        monkeypatch.setattr(core, "parse_weight", lambda text: calls.append(text) or original(text))
        doc = {"nodes": [{"id": 0, "parent": None, "weight": "1"}]}
        doc["nodes"] += [{"id": i, "parent": 0, "weight": "1/4"} for i in range(1, 5)]
        inst, errors = parse_instance_document(doc)
        assert errors == []
        assert inst.weights == (Fraction(1),) + (Fraction(1, 4),) * 4
        assert calls == ["1", "1/4"]

    def test_a_repeated_bad_weight_is_reported_for_every_node(self):
        doc = {
            "nodes": [
                {"id": 0, "parent": None, "weight": "1"},
                {"id": 1, "parent": 0, "weight": "1/0"},
                {"id": 2, "parent": 0, "weight": "0.5"},
                {"id": 3, "parent": 0, "weight": "1/0"},
            ]
        }
        inst, errors = parse_instance_document(doc)
        assert inst is None
        assert errors == [
            StructuralError(WEIGHT_OUT_OF_RANGE, 1, "zero denominator in weight: '1/0'"),
            StructuralError(WEIGHT_OUT_OF_RANGE, 2, "not a rational 'p' or 'p/q' string: '0.5'"),
            StructuralError(WEIGHT_OUT_OF_RANGE, 3, "zero denominator in weight: '1/0'"),
        ]

    def test_unnormalized_file_raises_through_loader(self):
        doc = {
            "nodes": [
                {"id": 0, "parent": None, "weight": "1"},
                {"id": 1, "parent": 0, "weight": "1/2"},
                {"id": 2, "parent": 0, "weight": "1/3"},
            ]
        }
        with pytest.raises(InvalidInstanceError) as exc:
            instance_from_json(json.dumps(doc))
        assert any(e.kind == CHILDREN_WEIGHTS_NOT_NORMALIZED for e in exc.value.errors)

    @given(irregular_instances())
    def test_round_trip_any_shape(self, inst):
        assert instance_from_json(instance_to_json(inst)) == inst

    @staticmethod
    def indented(inst: Instance) -> str:
        """The instance file as the indent encoder writes it."""
        nodes = [{"id": i, "parent": inst.parents[i], "weight": str(inst.weights[i])} for i in inst.bfs_order()]
        return json.dumps({"nodes": nodes}, indent=2)

    @given(
        st.one_of(
            irregular_instances(),
            irregular_instances(max_weight=1000),
            malformed_instances().filter(bfs_order_succeeds),
        )
    )
    # parents other than a plain int: a bool, an int subclass, None
    @example(Instance([None, True], [1, 1], [[1], []]))
    @example(Instance([None, NodeId(0)], [1, 1]))
    @example(Instance([None, None], [1, Fraction(1, 2)], [[1], []]))
    @example(Instance([None, 0, 0], [1, Share(1, 3), Share(2, 3)]))
    def test_writer_matches_indented_json_dumps(self, inst):
        assert instance_to_json(inst) == self.indented(inst)

    @pytest.mark.parametrize(
        "parent",
        ["x\ny", 1.5, math.nan, 2**70, -1, [], [0, [1, {}]], {"a": [1, 2], "b": {}}],
        ids=repr,
    )
    def test_writer_matches_indented_json_dumps_on_any_parent(self, parent):
        inst = Instance([None, parent], [1, 1], [[1], []])
        assert instance_to_json(inst) == self.indented(inst)

    def test_writer_refuses_what_json_cannot_encode(self):
        with pytest.raises(TypeError):
            instance_to_json(Instance([None, object()], [1, 1], [[1], []]))

    def test_allocation_round_trip(self):
        alloc = Allocation(6, (6, 2, 1, 2, 1, 3, 3))
        assert allocation_from_json(allocation_to_json(alloc)) == alloc

    @pytest.mark.parametrize(
        "text",
        [
            "[]",
            '{"h": -1, "seats": [0]}',
            '{"h": 2, "seats": [2, "1", 1]}',
            '{"h": true, "seats": [1]}',
            '{"seats": [1]}',
        ],
    )
    def test_bad_allocation_documents(self, text):
        with pytest.raises(ValueError):
            allocation_from_json(text)

    @pytest.mark.parametrize(
        "seats", ["[2, 1, -1]", "[2, true, 1]", "[2, 1.0, 1]", "[2, null, 1]", "[2, [1], 1]", '{"0": 2}']
    )
    def test_bad_seat_lists(self, seats):
        with pytest.raises(ValueError, match=r'^"seats" must be a list of non-negative integers$'):
            allocation_from_json(f'{{"h": 2, "seats": {seats}}}')

    def test_empty_and_huge_seat_lists_parse(self):
        assert allocation_from_json('{"h": 0, "seats": []}') == Allocation(0, ())
        assert allocation_from_json(f'{{"h": 0, "seats": [0, {10**30}]}}').seats == (0, 10**30)


def record_pairs() -> list[tuple]:
    """One record of each value class and one of the same class that
    differs from it in one field."""
    sym7 = make_sym7()
    binary2 = TreeFamily(TreeKind.PERFECT_BINARY, 2)
    bounds = QuotaBounds(1, 2, 3, 0, 0)
    config = ExperimentConfig(binary2, instance_count=3, house_sizes=(10,), methods=(MethodKind.ADAMS,))
    row = TableRow(MethodKind.ADAMS, binary2, 7, 10, 3, 1, 0, Fraction(1, 2), Fraction(1, 3))
    report = QuotaReport(QuotaMode.ALL_ANCESTORS, (bounds,), (False,), (True,), (), 0, 1)
    return [
        (StructuralError(NON_TREE, 1, "node is its own parent"), StructuralError(NON_TREE, 2, "node is its own parent")),
        (Allocation(3, (3, 2, 1)), Allocation(3, (3, 1, 2))),
        (bounds, QuotaBounds(1, 2, 3, 0, 1)),
        (report, QuotaReport(QuotaMode.ROOT_ONLY, (bounds,), (False,), (True,), (), 0, 1)),
        (FeasibleInterval(1, 0, 2, Fraction(3, 2)), FeasibleInterval(1, 0, 2, Fraction(5, 4))),
        (to_full_binary(sym7), BinaryReduction(sym7, sym7, tuple(range(7)), (7,))),
        (binary2, TreeFamily(TreeKind.FULL_4ARY, 2)),
        (build_tree(binary2), build_tree(TreeFamily(TreeKind.PERFECT_BINARY, 3))),
        (run_method(sym7, "adams", 4), run_method(sym7, "jefferson", 4)),
        (config, ExperimentConfig(binary2, instance_count=4, house_sizes=(10,), methods=(MethodKind.ADAMS,))),
        (row, TableRow(MethodKind.ADAMS, binary2, 7, 10, 3, 1, 1, Fraction(1, 2), Fraction(1, 3))),
        (MetricsTable(config, (row,)), MetricsTable(config, ())),
    ]


RECORD_CLASSES = [type(a) for a, _ in record_pairs()]


def rebuilt(record):
    return type(record)(*(getattr(record, f) for f in record.__match_args__))


@pytest.mark.parametrize("index", range(len(RECORD_CLASSES)), ids=[c.__name__ for c in RECORD_CLASSES])
class TestRecords:
    """The public value types are frozen records with field semantics."""

    def test_equal_and_hash_by_field(self, index):
        record, other = record_pairs()[index]
        copy_ = rebuilt(record)
        assert copy_ is not record and copy_ == record and hash(copy_) == hash(record)
        assert other != record and not other == record
        assert hash(other) != hash(record)

    def test_unequal_across_classes(self, index):
        record = record_pairs()[index][0]
        assert all(record != b for i, (b, _) in enumerate(record_pairs()) if i != index)
        assert record != tuple(getattr(record, f) for f in record.__match_args__)

    def test_repr_lists_the_fields(self, index):
        record = record_pairs()[index][0]
        fields = ", ".join(f"{f}={getattr(record, f)!r}" for f in record.__match_args__)
        assert repr(record) == f"{type(record).__name__}({fields})"

    def test_frozen(self, index):
        record = record_pairs()[index][0]
        field = record.__match_args__[0]
        for name in (field, "extra"):
            with pytest.raises(AttributeError):
                setattr(record, name, 1)
            with pytest.raises(AttributeError):
                delattr(record, name)
        assert rebuilt(record) == record

    @pytest.mark.parametrize(
        "clone", [lambda r: pickle.loads(pickle.dumps(r)), copy.deepcopy, copy.copy], ids=["pickle", "deepcopy", "copy"]
    )
    def test_pickle_and_copy_round_trip(self, index, clone):
        record = record_pairs()[index][0]
        back = clone(record)
        assert type(back) is type(record) and back == record and hash(back) == hash(record)

    def test_signature_names_the_fields(self, index):
        cls = RECORD_CLASSES[index]
        assert tuple(inspect.signature(cls).parameters) == cls.__match_args__

    def test_keyword_construction(self, index):
        record = record_pairs()[index][0]
        assert type(record)(**{f: getattr(record, f) for f in record.__match_args__}) == record


class TestRecordDetails:
    def test_exact_reprs(self):
        assert repr(Allocation(3, [2, 1])) == "Allocation(h=3, seats=(2, 1))"
        assert repr(QuotaBounds(4, 1, 2, 0, 1)) == (
            "QuotaBounds(node=4, lower=1, upper=2, binding_lower_ancestor=0, binding_upper_ancestor=1)"
        )
        assert repr(StructuralError(NON_TREE, None, "empty node list")) == (
            "StructuralError(kind='NonTree', node=None, message='empty node list')"
        )
        assert repr(TreeFamily("4ary", 3)) == "TreeFamily(kind=<TreeKind.FULL_4ARY: '4ary'>, height=3)"
        traj = run_method(make_sym7(), "adams", 1)
        assert repr(traj) == (
            "Trajectory(instance=Instance(n=7), method=<MethodKind.ADAMS: 'adams'>, "
            "final=Allocation(h=1, seats=(1, 1, 0, 0, 0, 1, 0)))"
        )

    def test_not_equal_to_a_tuple_or_a_record_of_the_same_values(self):
        class Other(core._Record):
            h: int
            seats: tuple

        assert Allocation(1, (1,)) != (1, (1,))
        assert Allocation(1, (1,)) != Other(1, (1,))
        assert Other(1, (1,)) == Other(1, (1,)) and Other.__match_args__ == ("h", "seats")

    def test_construction_by_position_keyword_and_default(self):
        family = TreeFamily(TreeKind.PERFECT_BINARY, 2)
        assert Allocation(2, (2, 1, 1)) == Allocation(h=2, seats=(2, 1, 1)) == Allocation(2, seats=[2, 1, 1])
        config = ExperimentConfig(family)
        assert config == ExperimentConfig(family, 1000, 0, (100, 500), ALL_METHODS, QuotaMode.ALL_ANCESTORS, 10)
        assert (config.instance_count, config.base_seed, config.house_sizes, config.max_weight) == (1000, 0, (100, 500), 10)
        assert config.methods == ALL_METHODS and config.mode is QuotaMode.ALL_ANCESTORS
        assert ExperimentConfig(family, max_weight=3) == ExperimentConfig(family, 1000, 0, (100, 500), ALL_METHODS, "all", 3)
        params = inspect.signature(ExperimentConfig).parameters
        assert params["family"].default is inspect.Parameter.empty
        assert params["instance_count"].default == 1000
        with pytest.raises(TypeError):
            Allocation(2)
        with pytest.raises(TypeError):
            Allocation(2, (2,), seat=(2,))
        with pytest.raises(TypeError):
            ExperimentConfig()

    def test_post_init_converts_and_validates(self):
        assert type(Allocation(1, [1]).seats) is tuple
        assert TreeFamily("binary", 2).kind is TreeKind.PERFECT_BINARY
        for height in (0, 2.5, True):
            with pytest.raises(UnsupportedHeight):
                TreeFamily(TreeKind.PERFECT_BINARY, height)
        family = TreeFamily(TreeKind.FULL_4ARY, 1)
        config = ExperimentConfig(family, house_sizes=[5, 6], methods=["quota"], mode="root")
        assert config.house_sizes == (5, 6) and config.methods == (MethodKind.QUOTA,)
        assert config.mode is QuotaMode.ROOT_ONLY
        for bad in ({"instance_count": 0}, {"base_seed": "1"}, {"max_weight": True}, {"house_sizes": [0]}):
            with pytest.raises(ValueError):
                ExperimentConfig(family, **bad)

    def test_trajectory_paths_are_cached_and_not_a_field(self):
        sym7 = make_sym7()
        traj = run_method(sym7, "adams", 5)
        assert "paths" not in vars(traj)
        paths = traj.paths
        assert traj.paths is paths and vars(traj)["paths"] is paths
        fresh = run_method(sym7, "adams", 5)
        assert traj == fresh and hash(traj) == hash(fresh) and repr(traj) == repr(fresh)
        assert "paths" not in vars(fresh) and Trajectory.__match_args__ == ("instance", "method", "final")
        assert pickle.loads(pickle.dumps(traj)).paths == paths

    def test_import_loads_no_dataclasses_inspect_or_typing(self):
        # -S keeps site from preloading typing, so the check sees the library's own imports
        code = (
            "import sys; before = set(sys.modules); import apportree, apportree.cli; "
            "print(sorted({'dataclasses', 'inspect', 'typing'} & (set(sys.modules) - before)))"
        )
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        env = {**os.environ, "PYTHONPATH": src}
        done = subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, check=True)
        assert done.stdout.strip() == "[]"
