"""The four seat-by-seat methods: regressions, per-step laws, oracles."""

from __future__ import annotations

import math
import tracemalloc
from fractions import Fraction
from time import perf_counter

import pytest
from hypothesis import assume, given, settings, strategies as st

from apportree import (
    Allocation,
    Instance,
    InvalidInstanceError,
    MethodKind,
    NoEligibleChild,
    SplitMix64,
    TreeFamily,
    TreeKind,
    allocate_both_quotas,
    assign_entitlements,
    build_tree,
    check_allocation,
    count_violations,
    instance_from_json,
    instance_to_json,
    random_instance,
    relative_entitlements,
    require_valid,
    run_method,
    step,
)

import apportree.cli as cli
import apportree.core as core
import apportree.methods as methods
from apportree.methods import _walk

from conftest import (
    ancestors_of,
    caterpillar,
    flat_instance,
    heavy_spine,
    irregular_instances,
    make_deep7,
    make_nested5,
    reversed_children,
    share_lists,
)
from oracles import (
    adams_single_level,
    jefferson_single_level,
    quota_single_level,
    walk_by_global_shares,
)

method_kinds = st.sampled_from(list(MethodKind))


def splits_of(inst: Instance) -> list[tuple[int, int, int, bool]]:
    """What the command line's work bound reads of ``inst``."""
    _, _, _, _, _, wden, children = require_valid(inst)._fast
    return methods._splits(children, wden)


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

    @pytest.mark.parametrize(
        "method, make, h, seats, side",
        [
            (MethodKind.ADAMS, lambda: flat_instance([Fraction(7, 10)] + [Fraction(1, 10)] * 3), 4,
             (4, 1, 1, 1, 1), "lower"),
            (MethodKind.JEFFERSON, make_nested5, 5, (5, 5, 0, 5, 0), "upper"),
            (MethodKind.QUOTA, make_nested5, 5, (5, 5, 0, 5, 0), "upper"),
            (MethodKind.UC_QUOTA, make_deep7, 5, (5, 5, 0, 4, 1, 3, 1), "lower"),
        ],
    )
    def test_each_method_misses_a_quota_on_some_tree(self, method, make, h, seats, side):
        # none of the four methods meets both quotas on every tree
        inst = make()
        final = run_method(inst, method, h).final
        assert final.seats == seats
        report = check_allocation(inst, final)
        low, up = report.lower_violation_count, report.upper_violation_count
        assert (low > 0, up > 0) == (side == "lower", side == "upper")
        assert count_violations(inst, seats) == (low, up)

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

    @given(irregular_instances(), method_kinds, st.integers(0, 25))
    def test_allocation_at_prefixes(self, inst, method, h):
        traj = run_method(inst, method, h)
        assert traj.allocation_at(0) == Allocation(0, (0,) * inst.n)
        at = [traj.allocation_at(k) for k in range(h + 1)]
        assert at[h] == traj.final
        # read off the cascade: nothing walked the paths yet
        assert "paths" not in vars(traj)
        assert at == list(traj.allocations())

    def test_allocation_at_range_checked(self, sym7):
        traj = run_method(sym7, "adams", 3)
        with pytest.raises(ValueError):
            traj.allocation_at(4)
        with pytest.raises(ValueError):
            traj.allocation_at(-1)
        for bad in ("3", None, 2.0, True):
            with pytest.raises(ValueError, match="house size must be a non-negative integer"):
                traj.allocation_at(bad)

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


def height(inst: Instance) -> int:
    """Edges on the longest root-to-leaf path of a tree whose parents have
    lower ids than their children, as :func:`irregular_instances` draws."""
    depth = [0] * inst.n
    for i in range(1, inst.n):
        depth[i] = depth[inst.parents[i]] + 1
    return max(depth)


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

    @pytest.mark.parametrize(
        "seats, message",
        [
            ((0, 0, 0, 0), "allocation has 4 entries for 5 nodes"),
            ((0, 0, 0, 0, 0, 0), "allocation has 6 entries for 5 nodes"),
            ((1, 1, 0, 1, -1), "seat count for node 4 must be a non-negative integer"),
            ((1, True, 0, True, 0), "seat count for node 1 must be a non-negative integer"),
            ((1, 1, 0, 1.0, 0), "seat count for node 3 must be a non-negative integer"),
        ],
        ids=["short", "long", "negative", "bool", "float"],
    )
    def test_bad_seats_raise_what_the_checker_raises(self, nested5, seats, message):
        alloc = Allocation(1, seats)
        for method in MethodKind:
            with pytest.raises(ValueError, match=f"^{message}$"):
                step(nested5, alloc, method)
        with pytest.raises(ValueError, match=f"^{message}$"):
            check_allocation(nested5, alloc)

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


CASCADE_KINDS = (MethodKind.ADAMS, MethodKind.JEFFERSON, MethodKind.QUOTA, MethodKind.UC_QUOTA)


class TestLevelCascade:
    """``final`` of every method is computed level by level; the
    seat-by-seat walk is the reference it must match exactly."""

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
        st.booleans(),
    )
    def test_wide_nodes_match_the_walk(self, shares, method, h, flip, fixed_keys):
        # Many children: the divisor methods give out up to b last seats
        # one at a time, quota walks the node seat by seat and UC-quota
        # takes its wide, not its two-child, split.  Houses no bigger
        # than the node keep Adams children at zero, where weight breaks
        # ties.  A _STEP_BITS of 0 puts every key in fixed point.
        inst = flat_instance(shares)
        if flip:
            inst = reversed_children(inst)
        with pytest.MonkeyPatch.context() as patch:
            if fixed_keys:
                patch.setattr(methods, "_STEP_BITS", 0)
            final = run_method(inst, method, h).final
        walked, _ = _walk(inst, method, h)
        assert final.seats == tuple(walked)

    @given(share_lists(max_parties=8, max_weight=6), st.booleans(), st.data())
    def test_quota_splits_repeat_every_period(self, shares, flip, data):
        # Quota starts a wide node at k = v - v mod D seats, D the lcm of
        # the weight denominators, and walks the rest; houses up to 5 * D
        # reach k >= D.
        period = math.lcm(*(s.denominator for s in shares))
        h = data.draw(st.integers(0, 5 * period))
        inst = flat_instance(shares)
        if flip:
            inst = reversed_children(inst)
        walked, _ = _walk(inst, MethodKind.QUOTA, h)
        assert run_method(inst, MethodKind.QUOTA, h).final.seats == tuple(walked)

    @given(
        irregular_instances(max_nodes=8, max_weight=4),
        st.sampled_from([MethodKind.QUOTA, MethodKind.UC_QUOTA]),
        st.integers(0, 200),
    )
    def test_children_are_fixed_at_multiples_of_d(self, inst, method, h):
        # What the quota and UC-quota splits start from, read off the walk
        # alone: whenever a node's count k is a multiple of D, the lcm of
        # its children's weight denominators, each child holds k * w.
        seats = [0] * inst.n
        for path in _walk(inst, method, h)[1]:
            for i in path:
                seats[i] += 1
            for i in path:
                kids = inst.children[i]
                if kids and seats[i] % math.lcm(*(inst.weights[c].denominator for c in kids)) == 0:
                    assert all(seats[c] == seats[i] * inst.weights[c] for c in kids)

    @given(
        irregular_instances(max_nodes=10, max_weight=3),
        st.integers(0, 1500),
        st.sampled_from([None, 0, 40]),
        st.booleans(),
        st.booleans(),
    )
    def test_uc_quota_periods_match_the_walk(self, inst, h, limit, fixed_keys, flip):
        # Houses up to 1500 span several periods of the top nodes' splits
        # at weights up to 3.  A limit of 0 sends every cap through the
        # (numerator, denominator) split; one of 40 leaves the top levels
        # in one list and stops the periods that pass it.  A _STEP_BITS of
        # 0 puts every wide node's keys in fixed point.
        if flip:
            inst = reversed_children(inst)
        with pytest.MonkeyPatch.context() as patch:
            if limit is not None:
                patch.setattr(methods, "_Q_LIMIT", limit)
            if fixed_keys:
                patch.setattr(methods, "_STEP_BITS", 0)
            final = run_method(inst, MethodKind.UC_QUOTA, h).final
        walked, _ = _walk(inst, MethodKind.UC_QUOTA, h)
        assert final.seats == tuple(walked)

    @pytest.mark.parametrize("limit", [None, 20])
    def test_uc_quota_periods_down_a_tree(self, monkeypatch, limit):
        # The root splits 1/6, 1/10 and 11/15, so D = 30 and, its caps
        # repeating every seat, L = 30; node 3's caps repeat every 30 *
        # 11/15 = 22 seats, and its halves make L = 22.  Nodes 1 and 6
        # have only leaves below them, so no period.  A limit of 20 keeps
        # the root's caps and its children's Q (6, 10, 15) in one list but
        # stops its period, and sends node 3's caps on as pairs.  Houses
        # up to 400 span many periods.
        if limit is not None:
            monkeypatch.setattr(methods, "_Q_LIMIT", limit)
        half = Fraction(1, 2)
        inst = Instance(
            [None, 0, 0, 0, 1, 1, 3, 3, 6, 6],
            [Fraction(1), Fraction(1, 6), Fraction(1, 10), Fraction(11, 15), Fraction(1, 3), Fraction(2, 3),
             half, half, Fraction(1, 4), Fraction(3, 4)],
        )
        run_method(inst, MethodKind.UC_QUOTA, 0)
        periods = {rec[0]: uc[3] for rec, uc in zip(*inst._plan)}
        assert periods == ({0: 30, 1: 0, 3: 22, 6: 0} if limit is None else dict.fromkeys((0, 1, 3, 6), 0))
        for h in range(401):
            walked, _ = _walk(inst, MethodKind.UC_QUOTA, h)
            assert run_method(inst, MethodKind.UC_QUOTA, h).final.seats == tuple(walked)

    def test_quota_period_is_the_lcm_not_the_largest_denominator(self):
        # The largest weight denominator is 6, the lcm 12.
        inst = flat_instance([Fraction(1, 6), Fraction(1, 3), Fraction(1, 4), Fraction(1, 4)])
        for h in range(61):
            walked, _ = _walk(inst, MethodKind.QUOTA, h)
            assert run_method(inst, MethodKind.QUOTA, h).final.seats == tuple(walked)

    @pytest.mark.parametrize("fixed_keys", [False, True])
    @pytest.mark.parametrize("flip", [False, True])
    def test_six_decimal_weights_on_thirty_children(self, monkeypatch, flip, fixed_keys):
        # D = 10**6 for quota.  Every method keeps the 30 children's next
        # keys in one heap, ranked over the lcm of their weight
        # numerators or in fixed point, and quota and UC-quota park
        # children at their cap.
        if fixed_keys:
            monkeypatch.setattr(methods, "_STEP_BITS", 0)
        rng = SplitMix64(6)
        raw = [rng.randint(1, 30000) for _ in range(29)]
        raw.append(10**6 - sum(raw))
        inst = flat_instance([Fraction(r, 10**6) for r in raw])
        if flip:
            inst = reversed_children(inst)
        for method in MethodKind:
            for h in (1, 29, 30, 31, 1000, 2345):
                walked, _ = _walk(inst, method, h)
                assert run_method(inst, method, h).final.seats == tuple(walked)

    @pytest.mark.parametrize("pair_caps", [False, True])
    def test_uc_quota_matches_the_walk_on_generated_trees(self, monkeypatch, pair_caps):
        # The min with v_c in the caps a split passes on decides seats on
        # binary height 4 seed 571 at h=200 (a two-child split) and on
        # 4-ary height 5 seed 910567 from h=944 (a wide split); the other
        # 4-ary trees reach the wide split's cap test.  A limit of 0 sends
        # every cap through the (numerator, denominator) split.
        if pair_caps:
            monkeypatch.setattr(methods, "_Q_LIMIT", 0)
        cases = [(TreeKind.PERFECT_BINARY, 4, 571, 10, 200), (TreeKind.FULL_4ARY, 5, 910567, 10, 1000)]
        cases += [(TreeKind.FULL_4ARY, 3, seed, 10, 200) for seed in range(40)]
        for kind, height, seed, max_weight, h in cases:
            inst = random_instance(TreeFamily(kind, height), seed, max_weight)
            walked, _ = _walk(inst, MethodKind.UC_QUOTA, h)
            assert run_method(inst, MethodKind.UC_QUOTA, h).final.seats == tuple(walked)

    def test_uc_quota_pairs_nodes_over_leaves_split_only_their_tail(self, monkeypatch):
        # A limit of 0 sends every cap through the (numerator, denominator)
        # split.  A node whose children are all leaves passes no caps on,
        # so like a node with caps in one list it starts its children at
        # k * w, k = v - v mod D, and hands out fewer than D seats one at
        # a time, here of some 60.
        monkeypatch.setattr(methods, "_Q_LIMIT", 0)
        split = methods._split_wide
        handed: dict[int, int] = {}

        def spy(seats, rec, held, bump, caps, zs, adds):
            caps = list(caps)
            handed[rec[0]] = handed.get(rec[0], 0) + len(caps)
            split(seats, rec, held, bump, caps, zs, adds)

        monkeypatch.setattr(methods, "_split_wide", spy)
        for seed in range(10):
            inst = random_instance(TreeFamily(TreeKind.PERFECT_BINARY, 6), seed)
            handed.clear()
            final = run_method(inst, MethodKind.UC_QUOTA, 2000).final
            over_leaves = [(rec[0], uc[4]) for rec, uc in zip(*inst._plan) if not any(uc[2])]
            assert len(over_leaves) == 32
            assert all(handed[i] < d for i, d in over_leaves)
            walked, _ = _walk(inst, MethodKind.UC_QUOTA, 2000)
            assert final.seats == tuple(walked)

    @given(
        st.integers(2, 4),
        st.integers(0, 2**32 - 1),
        st.sampled_from([3, 10, 1000]),
        st.integers(0, 500),
        st.booleans(),
    )
    def test_uc_quota_wide_nodes_below_the_root(self, height, seed, max_weight, h, pair_caps):
        # Every node with children has four, and below the root they get
        # caps inherited from above, often below their own counts.  Weights
        # up to 1000 give the children's keys large units; a limit of 0
        # sends every cap through the (numerator, denominator) split.
        inst = random_instance(TreeFamily(TreeKind.FULL_4ARY, height), seed, max_weight)
        with pytest.MonkeyPatch.context() as patch:
            if pair_caps:
                patch.setattr(methods, "_Q_LIMIT", 0)
            final = run_method(inst, MethodKind.UC_QUOTA, h).final
        walked, _ = _walk(inst, MethodKind.UC_QUOTA, h)
        assert final.seats == tuple(walked)

    @pytest.mark.parametrize("fixed_keys", [False, True])
    def test_uc_quota_wide_nodes_below_a_heavy_spine(self, monkeypatch, fixed_keys):
        # The spine's caps come as pairs from five levels down, so the
        # four-child node at its tip, and the three-child node below that,
        # split caps in (numerator, denominator) pairs.
        if fixed_keys:
            monkeypatch.setattr(methods, "_STEP_BITS", 0)
        inst = with_wide_nodes(heavy_spine(7), 13)
        run_method(inst, MethodKind.UC_QUOTA, 0)
        assert [uc[0] for rec, uc in zip(*inst._plan) if rec[2] is None] == [0, 0]
        for h in (1, 2, 5, 37, 150, 1000, 3000):
            walked, _ = _walk(inst, MethodKind.UC_QUOTA, h)
            assert run_method(inst, MethodKind.UC_QUOTA, h).final.seats == tuple(walked)

    @pytest.mark.parametrize("fixed_keys", [False, True])
    @pytest.mark.parametrize("pair_caps", [False, True])
    @pytest.mark.parametrize("flip", [False, True])
    def test_one_child_nodes(self, monkeypatch, pair_caps, flip, fixed_keys):
        # An only child takes every seat and passes on min(cap, v); here
        # only children sit above, between and below wide nodes.
        if pair_caps:
            monkeypatch.setattr(methods, "_Q_LIMIT", 0)
        if fixed_keys:
            monkeypatch.setattr(methods, "_STEP_BITS", 0)
        inst = Instance(
            [None, 0, 1, 1, 1, 2, 5, 5, 5, 3, 9, 9, 10],
            [Fraction(1), Fraction(1), Fraction(1, 2), Fraction(1, 3), Fraction(1, 6), Fraction(1),
             Fraction(2, 5), Fraction(2, 5), Fraction(1, 5), Fraction(1), Fraction(1, 4), Fraction(3, 4),
             Fraction(1)],
        )
        if flip:
            inst = reversed_children(inst)
        for method in MethodKind:
            for h in [*range(40), 500]:
                walked, _ = _walk(inst, method, h)
                assert run_method(inst, method, h).final.seats == tuple(walked)

    @pytest.mark.parametrize("fixed_keys", [False, True])
    def test_uc_quota_on_300_children(self, monkeypatch, fixed_keys):
        # A star far wider than the generated trees: 300 children rank in
        # one heap of next keys, with entries ``key * 300 + j``.
        if fixed_keys:
            monkeypatch.setattr(methods, "_STEP_BITS", 0)
        rng = SplitMix64(300)
        raw = [rng.randint(1, 9) for _ in range(300)]
        inst = flat_instance([Fraction(r, sum(raw)) for r in raw])
        for h in (5, 299, 300, 1500):
            walked, _ = _walk(inst, MethodKind.UC_QUOTA, h)
            assert run_method(inst, MethodKind.UC_QUOTA, h).final.seats == tuple(walked)

    @pytest.mark.parametrize("flip", [False, True])
    def test_300_distinct_prime_weights(self, flip):
        # 300 distinct prime numerators take far more than _STEP_BITS
        # bits, so the keys go in fixed point without any patch.
        inst = flat_instance([Fraction(p, sum(PRIMES[:300])) for p in PRIMES[:300]])
        if flip:
            inst = reversed_children(inst)
        for method in MethodKind:
            for h in (7, 299, 300, 301, 900):
                walked, _ = _walk(inst, method, h)
                assert run_method(inst, method, h).final.seats == tuple(walked)
        assert inst._plan[0][0][7] is None

    def test_uc_quota_overrides_jefferson_at_a_wide_node(self, monkeypatch):
        # Node 1 (weight 2/3) splits among nodes 3, 4 and 5 (1/2, 1/4,
        # 1/4).  The second seat brings node 1 the cap 2 * 2/3 = 4/3.  All
        # three children tie at key 4, and Jefferson's pick, node 3, holds
        # 1 seat, not under its cap 4/3 * 1/2, so UC-quota gives the seat
        # to node 4, the lower id of the two tied under the cap.
        inst = Instance(
            [None, 0, 0, 1, 1, 1],
            [Fraction(1), Fraction(2, 3), Fraction(1, 3), Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)],
        )
        assert run_method(inst, MethodKind.JEFFERSON, 2).paths == ((0, 1, 3), (0, 1, 3))
        assert run_method(inst, MethodKind.UC_QUOTA, 2).paths == ((0, 1, 3), (0, 1, 4))
        # a child found on top at its cap is parked with a heappush; the
        # only other heappush brings a parked child back, after a park
        parks = []
        push = methods.heappush
        monkeypatch.setattr(methods, "heappush", lambda heap, e: parks.append(e) or push(heap, e))
        for h in range(40):
            walked, _ = _walk(inst, MethodKind.UC_QUOTA, h)
            assert run_method(inst, MethodKind.UC_QUOTA, h).final.seats == tuple(walked)
        assert parks

    @pytest.mark.parametrize("method", list(MethodKind))
    def test_depth_1000_caterpillar(self, method):
        inst = caterpillar(8, 1000)
        for h in (1, 2, 3, 120):
            walked, _ = _walk(inst, method, h)
            assert run_method(inst, method, h).final.seats == tuple(walked)

    @pytest.mark.parametrize("heavy_first", [True, False])
    def test_uc_quota_on_a_heavy_spine(self, heavy_first):
        # Each level multiplies the caps denominator by 10**4, so five
        # levels down, past 2**60, the spine's caps switch from one list
        # of numerators to (numerator, denominator) pairs.
        parents: list[int | None] = [None]
        weights = [Fraction(1)]
        tip = 0
        for _ in range(200):
            first = len(parents)
            parents += [tip, tip]
            heavy, light = Fraction(9999, 10000), Fraction(1, 10000)
            weights += [heavy, light] if heavy_first else [light, heavy]
            tip = first if heavy_first else first + 1
        inst = Instance(parents, weights)
        for h in (1, 2, 37, 150, 1000):
            walked, _ = _walk(inst, MethodKind.UC_QUOTA, h)
            assert run_method(inst, MethodKind.UC_QUOTA, h).final.seats == tuple(walked)

    @pytest.mark.parametrize("pair_caps", [False, True])
    @pytest.mark.parametrize("heavy", [2, 4])
    def test_uc_quota_cap_met_exactly(self, monkeypatch, pair_caps, heavy):
        # The second seat brings node 1 the cap 2 * 2/3.  Its child of
        # weight 3/4 ranks first holding 1 seat, exactly 4/3 * 3/4, so it
        # is at its cap and the sibling takes the seat, whichever of the
        # two has the lower id.  A limit of 0 sends every cap through the
        # (numerator, denominator) split instead of the one-list split.
        if pair_caps:
            monkeypatch.setattr(methods, "_Q_LIMIT", 0)
        light = 6 - heavy
        weights = [Fraction(1), Fraction(2, 3), None, Fraction(1, 3), None]
        weights[heavy], weights[light] = Fraction(3, 4), Fraction(1, 4)
        inst = Instance([None, 0, 1, 0, 1], weights)
        walked, _ = _walk(inst, MethodKind.UC_QUOTA, 2)
        assert walked[heavy] == 1 and walked[light] == 1
        assert run_method(inst, MethodKind.UC_QUOTA, 2).final.seats == tuple(walked)

    @given(
        irregular_instances(max_nodes=20, max_weight=10**6).filter(lambda inst: height(inst) >= 5),
        st.integers(0, 300),
        st.booleans(),
    )
    def test_uc_quota_caps_change_form_down_a_path(self, inst, h, flip):
        # Weight denominators up to about 10**7 take a path's caps
        # denominator past 2**60 within a few two-child levels.
        if flip:
            inst = reversed_children(inst)
        walked, _ = _walk(inst, MethodKind.UC_QUOTA, h)
        assert run_method(inst, MethodKind.UC_QUOTA, h).final.seats == tuple(walked)

    @pytest.mark.parametrize("method", [MethodKind.ADAMS, MethodKind.JEFFERSON, MethodKind.QUOTA])
    @pytest.mark.parametrize(
        "pair",
        [(a, t - a) for t in range(2, 13) for a in range(1, t)],
        ids=lambda p: f"{p[0]}-{p[1]}",
    )
    def test_two_child_splits_at_small_houses(self, method, pair):
        # Two children are split by one floor division.  Every weight pair
        # a / d, b / d with d = a + b <= 12, at every h up to 3 * d, reaches
        # Adams' zero-seat tie to the larger weight, then the lower id,
        # Adams' tie at v - 1 a multiple of d and Jefferson's at v * a mod
        # d = b, in both child orders and one level down as well.
        a, b = pair
        top = flat_instance([Fraction(a, a + b), Fraction(b, a + b)])
        nested = Instance(
            [None, 0, 0, 1, 1],
            [Fraction(1), Fraction(1, 2), Fraction(1, 2), Fraction(a, a + b), Fraction(b, a + b)],
        )
        for inst in (top, reversed_children(top), nested, reversed_children(nested)):
            walked = [0] * inst.n
            for h in range(3 * (a + b) + 1):
                assert run_method(inst, method, h).final.seats == tuple(walked)
                _walk(inst, method, 1, walked)

    @pytest.mark.parametrize("method", list(MethodKind))
    def test_paths_are_walked_once_on_demand(self, deep7, method):
        traj = run_method(deep7, method, 9)
        assert "paths" not in vars(traj)
        assert traj.paths is traj.paths
        assert traj.paths == _walk(deep7, method, 9)[1]

    @pytest.mark.parametrize(
        "method, kind, height",
        [
            (MethodKind.ADAMS, TreeKind.FULL_4ARY, 3),
            (MethodKind.JEFFERSON, TreeKind.FULL_4ARY, 3),
            (MethodKind.QUOTA, TreeKind.PERFECT_BINARY, 6),
            (MethodKind.QUOTA, TreeKind.FULL_4ARY, 3),
            (MethodKind.UC_QUOTA, TreeKind.FULL_4ARY, 3),
            (MethodKind.UC_QUOTA, TreeKind.PERFECT_BINARY, 6),
        ],
    )
    def test_million_seat_house(self, method, kind, height):
        # UC-quota splits at most one period of a node's seats and fewer
        # than D more, so these take a few hundredths of a second
        inst = random_instance(TreeFamily(kind, height), 11)
        final = run_method(inst, method, 10**6).final
        report = check_allocation(inst, final)
        assert final.seats[0] == 10**6
        assert report.flow_violations == ()
        if method in (MethodKind.ADAMS, MethodKind.UC_QUOTA):
            assert report.upper_violation_count == 0
        else:
            assert report.lower_violation_count == 0

    def test_uc_quota_reads_the_root_caps_in_constant_time(self):
        # The root's caps are range(1, h + 1), and past one period a node
        # splits only its last h mod D seats: sliced from the range, not
        # stepped to, so a house of 10**12 costs what one of 10**6 does.
        inst = random_instance(TreeFamily(TreeKind.FULL_4ARY, 3), 1)
        start = perf_counter()
        final = run_method(inst, MethodKind.UC_QUOTA, 10**12).final
        assert perf_counter() - start < 0.5
        report = check_allocation(inst, final)
        assert final.seats[0] == 10**12
        assert report.flow_violations == ()
        assert report.upper_violation_count == 0


def generated_instances(min_height: int = 1):
    """Generator trees: binary to height 6 and 4-ary to height 3, each
    from ``min_height`` up, weights up to 3, 10 or 1000."""
    families = [TreeFamily(TreeKind.PERFECT_BINARY, k) for k in range(min_height, 7)]
    families += [TreeFamily(TreeKind.FULL_4ARY, k) for k in range(min_height, 4)]
    return st.builds(
        random_instance, st.sampled_from(families), st.integers(0, 2**64 - 1), st.sampled_from([3, 10, 1000])
    )


class TestStepOnTheCascade:
    """One seat walked on from the level-by-level counts at any ``h`` must
    land on those at ``h + 1``: house monotonicity, the split's start,
    the UC-quota period and its unrolling, far past the walk's reach."""

    @settings(max_examples=500)
    @given(
        st.one_of(
            st.sampled_from([3, 10, 1000]).flatmap(lambda w: irregular_instances(max_weight=w)),
            generated_instances(),
        ),
        st.sampled_from(CASCADE_KINDS),
        # log-uniform: a bit length k, then a house of k bits
        st.sampled_from(range(41)).flatmap(lambda k: st.integers(1 << k >> 1, min(1 << k, 10**12))),
    )
    def test_one_step_reaches_the_next_house(self, inst, method, h):
        self.check_step(inst, method, h)

    # Below the root a node's caps repeat every period, and they are
    # unrolled once its seats pass one period.  The draws above seldom
    # give the upper-compliant method a tree tall enough and a house large
    # enough, within its budget, to get there: these houses run from 2**7
    # to 2**14.
    @settings(max_examples=100)
    @given(
        generated_instances(min_height=3),
        st.sampled_from(range(8, 15)).flatmap(lambda k: st.integers(1 << k >> 1, 1 << k)),
    )
    def test_uc_quota_steps_past_a_cap_period_on_tall_trees(self, inst, h):
        self.check_step(inst, MethodKind.UC_QUOTA, h)

    @staticmethod
    def check_step(inst, method, h):
        assume(methods._work(method, h + 1, splits_of(inst)) <= cli._WORK_BUDGET)
        before = methods._cascade(inst, method, h)
        after, path = step(inst, Allocation(h, tuple(before)), method)
        assert after == Allocation(h + 1, tuple(methods._cascade(inst, method, h + 1)))
        assert sorted(path) == [i for i, (x, y) in enumerate(zip(before, after.seats)) if x != y]


def inserted_above(inst: Instance, x: int) -> Instance:
    """``inst`` with a one-child node put above node ``x``: the new node
    takes ``x``'s id, parent and weight, and old ``x`` becomes its only
    child, id ``n`` and weight 1, holding ``x``'s children."""
    n = inst.n
    parents = list(inst.parents) + [x]
    children = [list(kids) for kids in inst.children] + [list(inst.children[x])]
    for c in inst.children[x]:
        parents[c] = n
    children[x] = [n]
    return Instance(parents, list(inst.weights) + [Fraction(1)], children)


def preorder_relabelled(inst: Instance) -> tuple[Instance, list[int]]:
    """``inst`` with its ids renumbered in depth-first preorder, siblings
    visited in id order, and the map from old ids to new.  Each sibling
    group keeps its id order and its child-list order."""
    new = [0] * inst.n
    order: list[int] = []
    stack = [0]
    while stack:
        i = stack.pop()
        new[i] = len(order)
        order.append(i)
        stack.extend(sorted(inst.children[i], reverse=True))
    relabelled = Instance(
        [None] + [new[inst.parents[i]] for i in order[1:]],
        [inst.weights[i] for i in order],
        [[new[c] for c in inst.children[i]] for i in order],
    )
    return relabelled, new


class TestMetamorphicRelations:
    """Two rewrites of a tree that must not move a seat, for all four
    methods: a one-child node passes on its ``v`` seats and, since its
    weight is 1 and no cap passes ``v``, its caps unchanged; and ties go
    by id only within a sibling group."""

    trees = st.one_of(
        st.builds(
            random_instance,
            st.sampled_from(
                [TreeFamily(kind, k) for kind in (TreeKind.PERFECT_BINARY, TreeKind.FULL_4ARY) for k in range(1, 5)]
            ),
            st.integers(0, 2**64 - 1),
            st.sampled_from([3, 10, 1000]),
        ),
        irregular_instances(),
    )
    houses = st.one_of(st.sampled_from([0, 1, 7, 100, 1234, 5000]), st.integers(0, 5000))

    @staticmethod
    def seats(inst, h):
        """Each method's seats at ``h``, None where the command line would
        refuse the run."""
        splits = splits_of(inst)
        return {
            m: run_method(inst, m, h).final.seats if methods._work(m, h, splits) <= cli._WORK_BUDGET else None
            for m in MethodKind
        }

    @settings(max_examples=150)
    @given(trees, houses, st.data())
    def test_a_one_child_node_inserted_above_any_node(self, inst, h, data):
        x = data.draw(st.integers(0, inst.n - 1))
        wider = inserted_above(inst, x)
        before, after = self.seats(inst, h), self.seats(wider, h)
        for m in MethodKind:
            if before[m] is not None and after[m] is not None:
                assert after[m] == before[m] + (before[m][x],)

    @settings(max_examples=150)
    @given(trees, houses)
    def test_ids_relabelled_in_preorder(self, inst, h):
        relabelled, new = preorder_relabelled(inst)
        before, after = self.seats(inst, h), self.seats(relabelled, h)
        for m in MethodKind:
            if before[m] is not None and after[m] is not None:
                assert [after[m][new[i]] for i in range(inst.n)] == list(before[m])


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
        monkeypatch.setattr(core, "validate_instance", lambda inst, **kw: calls.append(1) or original(inst, **kw))
        for method in MethodKind:
            for h in (0, 5, 9):
                run_method(deep7, method, h)
        assert len(calls) == 1

    def test_invalid_instance_raises_on_every_call(self):
        bad = Instance([None, 0, 0], [1, Fraction(1, 2), Fraction(1, 3)])
        for method in MethodKind:
            with pytest.raises(InvalidInstanceError):
                run_method(bad, method, 3)


def with_wide_nodes(inst: Instance, node: int) -> Instance:
    """``inst`` with four children of weights 2/5, 3/10, 3/20 and 3/20
    under ``node``, and three of weights 1/7, 2/7 and 4/7 under the
    first of them."""
    first = inst.n
    parents = [*inst.parents, node, node, node, node, first, first, first]
    weights = [*inst.weights, Fraction(2, 5), Fraction(3, 10), Fraction(3, 20), Fraction(3, 20)]
    weights += [Fraction(1, 7), Fraction(2, 7), Fraction(4, 7)]
    return Instance(parents, weights)


def wide_spine(levels: int) -> Instance:
    """A spine of three-child nodes, weights 9998/10000, 1/10000 and
    1/10000, the first continuing the spine, so each level multiplies
    the caps denominator by 10**4."""
    parents: list[int | None] = [None]
    weights = [Fraction(1)]
    tip = 0
    for _ in range(levels):
        first = len(parents)
        parents += [tip, tip, tip]
        weights += [Fraction(9998, 10000), Fraction(1, 10000), Fraction(1, 10000)]
        tip = first
    return Instance(parents, weights)


def first_primes(count: int) -> list[int]:
    """The first ``count`` primes, by a sieve."""
    n = 2 * count * max(1, count.bit_length())
    sieve = bytearray([1]) * n
    sieve[:2] = b"\0\0"
    for k in range(2, math.isqrt(n) + 1):
        if sieve[k]:
            sieve[k * k :: k] = bytes(len(range(k * k, n, k)))
    primes = [k for k in range(n) if sieve[k]]
    assert len(primes) >= count
    return primes[:count]


PRIMES = first_primes(10**4)


class TestSplitPlan:
    """Each instance's per-node split data is built once, on its first
    cascade, and only there: the work bound reads the child lists and
    weight denominators alone."""

    def test_plan_is_built_once(self, deep7, monkeypatch):
        # the work bound, as on the command line, builds no plan; one
        # walk on the first cascade builds what every method reads
        calls = []
        original = methods._build_plan
        monkeypatch.setattr(methods, "_build_plan", lambda inst: calls.append(inst) or original(inst))
        splits = splits_of(deep7)
        for method in MethodKind:
            methods._work(method, 1000, splits)
        assert calls == [] and deep7._plan is None
        run_method(deep7, MethodKind.UC_QUOTA, 3)
        assert calls == [deep7]
        for method in MethodKind:
            for h in (0, 5, 9, 1000):
                run_method(deep7, method, h)
        run_method(deep7, MethodKind.QUOTA, 12).allocation_at(7)
        assert calls == [deep7]

    def test_loading_and_auditing_build_no_plan(self, deep7):
        inst = instance_from_json(instance_to_json(deep7))
        alloc = allocate_both_quotas(inst, 7)
        core._audit(inst, alloc)
        check_allocation(inst, alloc)
        count_violations(inst, alloc.seats)
        assert inst._plan is None
        run_method(inst, MethodKind.ADAMS, 7)
        plan, uc = inst._plan
        assert len(plan) == len(uc) == sum(1 for kids in inst.children if kids)

    def test_records_share_their_keep_tuples(self):
        # a binary tree's nodes have four kinds of child pair, by which of
        # the two children have children; each kind is one object
        inst = random_instance(TreeFamily(TreeKind.PERFECT_BINARY, 6), 1)
        run_method(inst, MethodKind.ADAMS, 1)
        uc = inst._plan[1]
        assert len(uc) == 63
        assert len({id(u[2]) for u in uc}) <= 4

    @pytest.mark.parametrize(
        "inst",
        [heavy_spine(200), wide_spine(200), caterpillar(8, 1000)],
        ids=["spine", "wide-spine", "caterpillar"],
    )
    def test_no_stored_q_passes_the_limit(self, inst):
        run_method(inst, MethodKind.UC_QUOTA, 50)
        plan, uc = inst._plan
        assert len(plan) == len(uc) == sum(1 for kids in inst.children if kids)
        for q, qc, _, period, _, *_ in uc:
            # a record that hands its caps on as one list keeps its
            # children's Q, one that hands them on as pairs 0; every
            # record keeps its period L
            assert all(0 <= x <= methods._Q_LIMIT for x in (q, *(qc or ()), period))
        # the spines' caps switch to pairs five levels down, and stay so
        if inst.n in (401, 601):
            assert [u[0] > 0 for u in uc] == [True] * 5 + [False] * 195

    @given(irregular_instances(max_nodes=16), st.integers(0, 5000))
    def test_splits_mark_the_nodes_that_hand_caps_on_as_pairs(self, inst, limit):
        # What the work bound reads, from the tree alone: a node's depth
        # from its parent chain, its number of children, the lcm D of
        # their weight denominators, and whether it hands its caps on as
        # pairs: whether its children's Q, the product of the weight
        # denominators down to them, passes the limit at it or at an
        # ancestor.  The plan is built under the patched limit too.
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(methods, "_Q_LIMIT", limit)
            splits = splits_of(inst)
            uc = methods._build_plan(inst)[1]

        def depth(i):
            d = 0
            while i:
                i = inst.parents[i]
                d += 1
            return d

        def passes(i):
            q = 1
            for a in [*ancestors_of(inst, i)[::-1], i][i == 0 :]:
                q *= inst.weights[a].denominator
                if q * max(inst.weights[c].denominator for c in inst.children[a]) > limit:
                    return True
            return False

        expected = [
            (depth(i), len(kids), math.lcm(*(inst.weights[c].denominator for c in kids)), passes(i))
            for i in inst.bfs_order()
            if (kids := inst.children[i])
        ]
        assert splits == expected
        # every node that hands its caps on as pairs is split on a heap
        assert all(u[5][2] is None for u in uc if not u[1])

    @pytest.mark.parametrize(
        "kind, height, max_weight",
        [(TreeKind.PERFECT_BINARY, 5, 10**6), (TreeKind.PERFECT_BINARY, 3, 1), (TreeKind.FULL_4ARY, 3, 10)],
    )
    def test_family_splits_bound_every_generated_tree(self, kind, height, max_weight):
        # A generated node's D divides the sum of its children's draws,
        # at most b * max_weight, and the product of those bounds down a
        # path bounds Q.  With draws up to 10**6 the bound on binary
        # height 5 passes 2**60 from depth 2 down.  So the work bound of
        # the family is at least that of every tree drawn from it.
        skeleton = build_tree(TreeFamily(kind, height))
        den = [len(skeleton.children[p]) * max_weight if i else 1 for i, p in enumerate(skeleton.parents)]
        bounds = methods._splits(skeleton.children, den)
        if max_weight == 10**6:
            assert [pairs for *_, pairs in bounds] == [False] * 3 + [True] * 28
        for seed in range(20):
            splits = splits_of(assign_entitlements(skeleton, seed, max_weight))
            assert len(splits) == len(bounds)
            for (depth, b, d, pairs), (top_depth, top_b, top_d, top_pairs) in zip(splits, bounds):
                assert (depth, b) == (top_depth, top_b)
                assert d <= top_d
                assert top_pairs or not pairs
            for method in MethodKind:
                assert methods._work(method, 1000, splits) <= methods._work(method, 1000, bounds)

    def test_records(self, flat5, nested5):
        # two children in id order, their weight numerators and their one
        # denominator; for UC-quota the caps denominators, Q_0 = 1, Q_1 =
        # 9 and both children's, the keep flags, the period L and D: the
        # root's caps repeat every seat, so L = lcm(1, 9); node 1's
        # children are leaves, which keep no caps, so it has no period
        inst = reversed_children(nested5)
        assert methods._build_plan(inst) == (
            [(0, 1, 2, 8, 1, 9), (1, 3, 4, 8, 1, 9)],
            [(1, (9, 9), (True, False), 9, 9), (9, (81, 81), (False, False), 0, 9)],
        )
        # wider: the children, D, their weights, no fixed-point units, their
        # key steps over L = lcm(2, 3, 3, 3) = 6, times b = 4, and their
        # first heap entries; for UC-quota their Q, keep flags, L and D
        inst = reversed_children(flat5)
        wide = (
            0, (1, 2, 3, 4), None, 20, (2, 3, 3, 3), (5, 10, 20, 20), None, (60, 80, 160, 160), (60, 81, 162, 163)
        )
        assert methods._build_plan(inst) == ([wide], [(1, (5, 10, 20, 20), (False,) * 4, 0, 20)])
        # Jefferson's order repeats every D = 20 seats, ties to the lower id
        period = [0, 1, 0, 1, 2, 3, 0, 0, 1, 0, 1, 2, 3, 0, 1, 0, 0, 1, 2, 3]
        jefferson = run_method(flat5, MethodKind.JEFFERSON, 40).paths
        assert [path[1] - 1 for path in jefferson] == period * 2

    def test_pairs_records(self, flat5, nested5, monkeypatch):
        # Past the limit the children's Q is 0 and there is no period; a
        # record gains the node's split in the form of a wide node: for
        # two children of weights 8/9 and 1/9, key steps over L = 8,
        # times b = 2.  Node 1's caps come as pairs too, so its Q is 0.
        monkeypatch.setattr(methods, "_Q_LIMIT", 0)
        plan, uc = methods._build_plan(reversed_children(nested5))
        assert uc == [
            (1, 0, (True, False), 0, 9, (0, (1, 2), None, 9, (8, 1), (9, 9), None, (18, 144), (18, 145))),
            (0, 0, (False, False), 0, 9, (1, (3, 4), None, 9, (8, 1), (9, 9), None, (18, 144), (18, 145))),
        ]
        # a wide node's own record serves its heap
        plan, uc = methods._build_plan(reversed_children(flat5))
        assert uc == [(1, 0, (False,) * 4, 0, 20, plan[0])]

    def test_fixed_point_records(self, flat5, monkeypatch):
        # past _STEP_BITS (the distinct numerators 2 and 3 take 4
        # bits) the units are wd << 4, as 2**4 > 3 * 3, and there are no
        # key steps
        monkeypatch.setattr(methods, "_STEP_BITS", 3)
        assert methods._build_plan(reversed_children(flat5))[0] == [
            (0, (1, 2, 3, 4), None, 20, (2, 3, 3, 3), (5, 10, 20, 20), (80, 160, 320, 320), None, None),
        ]

    @given(st.integers(1, 10**6), st.integers(1, 10**6), st.integers(0, 10**3))
    def test_fixed_point_keys_split_near_ties(self, a, b, k):
        # Weights a / (2a + 1) and b / (2b + 1), and counts with
        # s_a * (2a + 1) * b - s_b * (2b + 1) * a = 1: the key s_a / w_a
        # passes s_b / w_b by only 1 / (a * b), the least two different
        # keys can differ, so Adams gives child 1 the first seat despite
        # its higher id, and child 0 the second.
        x, y = (2 * a + 1) * b, (2 * b + 1) * a
        assume(math.gcd(x, y) == 1)
        wa, wb = Fraction(a, 2 * a + 1), Fraction(b, 2 * b + 1)
        inst = flat_instance([wa, wb, 1 - wa - wb])
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(methods, "_STEP_BITS", 0)
            rec = methods._build_plan(inst)[0][0]
        s_a = pow(x, -1, y) + k * y
        s_b = (s_a * x - 1) // y
        off = (0, 0, 0)
        for extra, expected in ((1, [s_a, s_b + 1]), (2, [s_a + 1, s_b + 1])):
            seats = [0] * 4
            methods._split_wide(seats, rec, [s_a, s_b, 10**30], 0, [1] * extra, off, off)
            assert seats[1:3] == expected

    def test_many_distinct_numerators_keep_the_split_small(self):
        # 10**4 leaves weighted by the first 10**4 primes: the lcm of the
        # weight numerators has some 10**5 bits, so exact key steps would
        # take hundreds of MiB.  In fixed point every method's split, at
        # small houses too, stays within a few MiB and well under a second.
        b = 10**4
        total = sum(PRIMES)
        inst = flat_instance([Fraction(p, total) for p in PRIMES])
        start = perf_counter()
        tracemalloc.start()
        try:
            for method in MethodKind:
                for h in (1, 100, b + 7):
                    seats = run_method(inst, method, h).final.seats
                    assert seats[0] == sum(seats[1:]) == h
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20
        assert perf_counter() - start < 60
        assert inst._plan[0][0][7] is None

    def test_no_child_under_the_cap_raises(self, flat5):
        # four children holding 2, 3, 4 and 4 seats, each at least its
        # quota at the cap 10 / 1, so all are parked, whether the cap
        # comes in a list over one denominator or as a pair
        rec = methods._build_plan(flat5)[0][0]
        seats = [0] * flat5.n
        for caps, zs in (([10], rec[5]), ([(10, 1)], None)):
            with pytest.raises(RuntimeError, match="no child under its cap"):
                methods._split_wide(seats, rec, [4, 3, 2, 2], 1, caps, zs, (0,) * 4)
