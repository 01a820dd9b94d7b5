"""Seeded instance generation: PRNG vectors, tree shapes, determinism."""

from __future__ import annotations

import re
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from apportree import (
    ExperimentConfig,
    SplitMix64,
    TreeFamily,
    TreeKind,
    UnsupportedHeight,
    assign_entitlements,
    build_tree,
    emit_table,
    instance_to_json,
    random_instance,
    run_experiment,
    validate_instance,
)


class TestSplitMix64:
    def test_reference_vectors_seed_zero(self):
        # First outputs of the published splitmix64 reference for seed 0.
        rng = SplitMix64(0)
        assert rng.next_u64() == 0xE220A8397B1DCDAF
        assert rng.next_u64() == 0x6E789E6AA1B965F4
        assert rng.next_u64() == 0x06C45D188009454F

    def test_seed_wraps_modulo_64_bits(self):
        assert SplitMix64(2**64).next_u64() == SplitMix64(0).next_u64()
        assert SplitMix64(-1).next_u64() == SplitMix64(2**64 - 1).next_u64()

    def test_streams_are_deterministic(self):
        a = SplitMix64(987654321)
        b = SplitMix64(987654321)
        assert [a.next_u64() for _ in range(64)] == [b.next_u64() for _ in range(64)]

    def test_outputs_fill_64_bits(self):
        rng = SplitMix64(7)
        seen_high_bit = False
        for _ in range(100):
            v = rng.next_u64()
            assert 0 <= v < 2**64
            seen_high_bit = seen_high_bit or v >= 2**63
        assert seen_high_bit

    def test_randint_inclusive_and_exhaustive(self):
        rng = SplitMix64(42)
        seen = set()
        for _ in range(200):
            v = rng.randint(1, 3)
            assert 1 <= v <= 3
            seen.add(v)
        assert seen == {1, 2, 3}

    def test_randint_degenerate_span(self):
        rng = SplitMix64(0)
        assert all(rng.randint(5, 5) == 5 for _ in range(10))

    def test_randint_rejects_empty_range(self):
        with pytest.raises(ValueError):
            SplitMix64(0).randint(3, 2)

    def test_randint_rejects_a_span_past_64_bits(self):
        # one draw covers 2**64 values; a wider span used to reject every
        # draw forever, so the draws are counted to fail instead of hang
        class Counted(SplitMix64):
            draws = 0

            def next_u64(self):
                self.draws += 1
                assert self.draws < 100, "randint rejects every draw"
                return super().next_u64()

        with pytest.raises(ValueError, match="more than 2\\*\\*64 values"):
            Counted(0).randint(1, 2**64 + 1)

    def test_randint_span_of_exactly_64_bits_is_the_raw_draw(self):
        rng = SplitMix64(0)
        assert [rng.randint(1, 2**64) for _ in range(3)] == [
            0xE220A8397B1DCDAF + 1, 0x6E789E6AA1B965F4 + 1, 0x6C45D188009454F + 1
        ]


class TestBuildTree:
    @pytest.mark.parametrize("height,n", [(1, 3), (2, 7), (3, 15), (4, 31), (5, 63), (6, 127)])
    def test_binary_node_counts(self, height, n):
        skel = build_tree(TreeFamily(TreeKind.PERFECT_BINARY, height))
        assert skel.n == n

    @pytest.mark.parametrize("height,n", [(3, 29), (4, 61), (5, 125), (6, 253)])
    def test_4ary_node_counts(self, height, n):
        skel = build_tree(TreeFamily(TreeKind.FULL_4ARY, height))
        assert skel.n == n

    def test_binary_parent_rule(self):
        skel = build_tree(TreeFamily(TreeKind.PERFECT_BINARY, 4))
        assert skel.parents[0] is None
        for i in range(1, skel.n):
            assert skel.parents[i] == (i - 1) // 2

    def test_4ary_level_profile(self):
        # Within every level except the last, exactly the even-position
        # nodes branch, four ways each, giving level sizes 1, 4, 8, 16, ...
        skel = build_tree(TreeFamily(TreeKind.FULL_4ARY, 4))
        levels = {}
        depth = [0] * skel.n
        for i in range(skel.n):
            if skel.parents[i] is not None:
                depth[i] = depth[skel.parents[i]] + 1
            levels.setdefault(depth[i], []).append(i)
        assert [len(levels[d]) for d in sorted(levels)] == [1, 4, 8, 16, 32]
        for d in sorted(levels)[:-1]:
            for pos, node in enumerate(levels[d]):
                expected = 4 if pos % 2 == 0 else 0
                assert len(skel.children[node]) == expected
        assert all(len(skel.children[i]) == 0 for i in levels[max(levels)])

    def test_ids_are_breadth_first(self):
        skel = build_tree(TreeFamily(TreeKind.FULL_4ARY, 3))
        depth = [0] * skel.n
        for i in range(1, skel.n):
            depth[i] = depth[skel.parents[i]] + 1
        assert depth == sorted(depth)

    @pytest.mark.parametrize("height", [0, -1, 13])
    def test_height_limits(self, height):
        with pytest.raises(UnsupportedHeight):
            build_tree(TreeFamily(TreeKind.PERFECT_BINARY, height))

    def test_height_must_be_integral(self):
        with pytest.raises(UnsupportedHeight):
            TreeFamily(TreeKind.PERFECT_BINARY, 2.5)

    @pytest.mark.parametrize("kind", list(TreeKind))
    def test_kind_given_by_value_builds_that_family(self, kind):
        family = TreeFamily(kind.value, 2)
        assert family.kind is kind
        assert family == TreeFamily(kind, 2)
        assert build_tree(family) == build_tree(TreeFamily(kind, 2))
        assert len(build_tree(family).children[0]) == (2 if kind is TreeKind.PERFECT_BINARY else 4)

    def test_unknown_kind_is_refused(self):
        with pytest.raises(ValueError, match="nonsense"):
            TreeFamily("nonsense", 2)

    def test_experiment_on_a_family_given_by_value(self):
        def table(kind):
            config = ExperimentConfig(TreeFamily(kind, 2), instance_count=2, house_sizes=(10,), methods=("adams",))
            return emit_table(run_experiment(config))

        assert table("binary") == table(TreeKind.PERFECT_BINARY)
        assert table("binary").splitlines()[1].startswith("adams,binary,2,7,10,")


class TestAssignEntitlements:
    def test_weights_are_normalized_and_valid(self):
        inst = random_instance(TreeFamily(TreeKind.FULL_4ARY, 3), seed=5)
        assert validate_instance(inst) == []

    def test_known_draw_normalization(self):
        # Two siblings drawing 4 and 6 must land on 2/5 and 3/5 regardless
        # of which seed produced the draws.
        skel = build_tree(TreeFamily(TreeKind.PERFECT_BINARY, 1))
        for seed in range(50):
            inst = assign_entitlements(skel, seed)
            w1, w2 = inst.weights[1], inst.weights[2]
            assert w1 + w2 == 1
            assert 1 <= w1.numerator <= 10

    def test_sibling_ratio_bounded(self):
        inst = random_instance(TreeFamily(TreeKind.FULL_4ARY, 3), seed=11)
        for i in range(inst.n):
            kids = inst.children[i]
            for a in kids:
                for b in kids:
                    ratio = inst.weights[a] / inst.weights[b]
                    assert Fraction(1, 10) <= ratio <= Fraction(10, 1)

    def test_max_weight_parameter(self):
        skel = build_tree(TreeFamily(TreeKind.PERFECT_BINARY, 1))
        inst = assign_entitlements(skel, seed=0, max_weight=1)
        assert inst.weights[1] == inst.weights[2] == Fraction(1, 2)

    @pytest.mark.parametrize("bad", [0, -2, 2.5, "3", True])
    def test_max_weight_must_be_an_int_of_at_least_one(self, bad):
        family = TreeFamily(TreeKind.PERFECT_BINARY, 1)
        message = f"max_weight must be an integer of at least 1, got {bad!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            assign_entitlements(build_tree(family), seed=0, max_weight=bad)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            random_instance(family, 0, bad)

    @given(st.sampled_from(list(TreeKind)), st.integers(1, 3), st.integers(0, 2**64 - 1))
    def test_generated_instances_validate(self, kind, height, seed):
        inst = random_instance(TreeFamily(kind, height), seed)
        assert validate_instance(inst) == []

    @given(st.sampled_from(list(TreeKind)), st.integers(1, 3), st.integers(0, 2**64 - 1))
    def test_bit_identical_across_runs(self, kind, height, seed):
        fam = TreeFamily(kind, height)
        assert instance_to_json(random_instance(fam, seed)) == instance_to_json(
            random_instance(fam, seed)
        )

    def test_different_seeds_differ(self):
        fam = TreeFamily(TreeKind.PERFECT_BINARY, 3)
        assert random_instance(fam, 0) != random_instance(fam, 1)
