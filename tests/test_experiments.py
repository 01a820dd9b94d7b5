"""Experiment harness: exact aggregation, table rendering, determinism."""

from __future__ import annotations

import csv
import gc
import io
import json
import multiprocessing
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

import apportree.experiments as experiments
from apportree import (
    ALL_METHODS,
    ExperimentConfig,
    Instance,
    MethodKind,
    QuotaMode,
    TreeFamily,
    TreeKind,
    assign_entitlements,
    build_tree,
    config_from_json,
    count_violations,
    emit_table,
    format_fixed,
    run_experiment,
    run_method,
)
from apportree.cli import main

from conftest import irregular_instances
from oracles import deviations_by_fractions, rows_by_summed_metrics

BINARY3 = TreeFamily(TreeKind.PERFECT_BINARY, 3)
FOURARY3 = TreeFamily(TreeKind.FULL_4ARY, 3)


def one_cell(inst, method, h, mode=QuotaMode.ALL_ANCESTORS):
    """One instance's (method, h) cell: violation counts, then the
    deviations' sum and maximum as Fractions."""
    den, cells = experiments._cells(inst, (method,), (h,), mode)
    low, up, dev_num, max_num = cells[0]
    return low, up, Fraction(dev_num, den), Fraction(max_num, den)


class TestCells:
    def test_quota_counts_the_known_upper_violation(self, nested5):
        assert one_cell(nested5, MethodKind.QUOTA, 5)[:2] == (0, 1)

    def test_uc_quota_counts_the_known_lower_violation(self, deep7):
        assert one_cell(deep7, MethodKind.UC_QUOTA, 5)[:2] == (1, 0)

    @pytest.mark.parametrize("method", list(MethodKind))
    def test_single_node_is_exact(self, single, method):
        assert one_cell(single, method, 12) == (0, 0, 0, 0)

    def test_deviations_are_exact_rationals(self, sym7):
        from apportree import relative_entitlements

        _, _, dev_sum, dev_max = one_cell(sym7, MethodKind.ADAMS, 5)
        seats = run_method(sym7, MethodKind.ADAMS, 5).final.seats
        shares = relative_entitlements(sym7)
        devs = [abs(Fraction(seats[i]) - shares[i] * 5) for i in range(7)]
        assert dev_sum == sum(devs)
        assert dev_max == max(devs)
        assert dev_max.denominator == 4

    @given(irregular_instances(), st.sampled_from(ALL_METHODS), st.integers(0, 300), st.sampled_from(QuotaMode))
    def test_cells_match_the_checker_and_per_node_fractions(self, inst, method, h, mode):
        seats = run_method(inst, method, h).final.seats
        expected = (*count_violations(inst, seats, mode), *deviations_by_fractions(inst, seats, h))
        assert one_cell(inst, method, h, mode) == expected

    def test_max_deviation_tied_across_denominators(self):
        # Nodes 1 and 2 each hold half the house and node 3 a sixth: at h=3
        # each is half a seat off, as 1/2, 1/2 and 3/6.
        half = Fraction(1, 2)
        inst = Instance([None, 0, 0, 2, 2], [1, half, half, Fraction(1, 3), Fraction(2, 3)])
        _, _, dev_sum, dev_max = one_cell(inst, MethodKind.JEFFERSON, 3)
        seats = run_method(inst, MethodKind.JEFFERSON, 3).final.seats
        assert seats == (3, 2, 1, 0, 1)
        assert dev_max == half
        assert dev_sum == Fraction(3, 2)
        assert (dev_sum, dev_max) == deviations_by_fractions(inst, seats, 3)


class TestRunExperiment:
    def test_single_instance_table_matches_direct_evaluation(self):
        cfg = ExperimentConfig(BINARY3, instance_count=1, base_seed=77, house_sizes=(100,))
        table = run_experiment(cfg)
        inst = assign_entitlements(build_tree(BINARY3), 77)
        for row in table.rows:
            low, up, dev_sum, dev_max = one_cell(inst, row.method, 100)
            assert row.instance_count == 1
            assert row.lower_violation_total == low
            assert row.upper_violation_total == up
            assert row.deviation_sum == dev_sum
            assert row.deviation_max_sum == dev_max
            assert row.avg_deviation == dev_sum / inst.n
            assert row.max_deviation == dev_max

    def test_rows_ordered_method_major(self):
        cfg = ExperimentConfig(BINARY3, instance_count=2, house_sizes=(10, 20))
        table = run_experiment(cfg)
        assert [(r.method, r.h) for r in table.rows] == [
            (m, h) for m in ALL_METHODS for h in (10, 20)
        ]

    def test_jefferson_and_quota_rows_identical_on_binary(self):
        cfg = ExperimentConfig(BINARY3, instance_count=40, house_sizes=(30,))
        rows = {r.method: r for r in run_experiment(cfg).rows}
        j, q = rows[MethodKind.JEFFERSON], rows[MethodKind.QUOTA]
        assert j.lower_violation_total == q.lower_violation_total
        assert j.upper_violation_total == q.upper_violation_total
        assert j.deviation_sum == q.deviation_sum
        assert j.deviation_max_sum == q.deviation_max_sum

    def test_guaranteed_zero_columns_are_exactly_zero(self):
        cfg = ExperimentConfig(FOURARY3, instance_count=25, house_sizes=(50,))
        for row in run_experiment(cfg).rows:
            if row.method in (MethodKind.ADAMS, MethodKind.UC_QUOTA):
                assert row.uq_violation_rate_pct == 0
            else:
                assert row.lq_violation_rate_pct == 0

    def test_directional_gap_uc_quota_vs_adams(self):
        cfg = ExperimentConfig(
            FOURARY3,
            instance_count=60,
            house_sizes=(100,),
            methods=(MethodKind.ADAMS, MethodKind.UC_QUOTA),
        )
        rows = {r.method: r for r in run_experiment(cfg).rows}
        assert (
            rows[MethodKind.UC_QUOTA].lq_violation_rate_pct
            < rows[MethodKind.ADAMS].lq_violation_rate_pct
        )

    def test_rates_bounded_and_deviations_nonnegative(self):
        cfg = ExperimentConfig(BINARY3, instance_count=10, house_sizes=(7,))
        for row in run_experiment(cfg).rows:
            assert 0 <= row.lq_violation_rate_pct <= 100
            assert 0 <= row.uq_violation_rate_pct <= 100
            assert row.avg_deviation >= 0
            assert row.max_deviation >= row.avg_deviation

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ExperimentConfig(BINARY3, instance_count=0)
        with pytest.raises(ValueError):
            ExperimentConfig(BINARY3, house_sizes=(0,))
        # plain ints of at least 1, checked when the config is built
        for bad in (True, 2.0, "3", -1):
            with pytest.raises(ValueError):
                ExperimentConfig(BINARY3, instance_count=bad)
        for bad in (("3",), (True,), (2.5,), (10, -1), (10, 0)):
            with pytest.raises(ValueError):
                ExperimentConfig(BINARY3, house_sizes=bad)
        # the generator's arguments too, so no bad value reaches a worker
        for bad in (2.5, True, "3", 0, -2):
            with pytest.raises(ValueError, match="max_weight must be an integer of at least 1"):
                ExperimentConfig(BINARY3, max_weight=bad)
        for bad in (1.5, True, "3"):
            with pytest.raises(ValueError, match="base_seed must be an integer, got"):
                ExperimentConfig(BINARY3, base_seed=bad)
        assert ExperimentConfig(BINARY3, base_seed=-1, max_weight=1).base_seed == -1

    def test_family_must_be_a_tree_family(self):
        for bad in ("binary", ("binary", 3), None):
            with pytest.raises(ValueError, match="family must be a TreeFamily, got"):
                ExperimentConfig(bad, instance_count=1, house_sizes=(10,))

    def test_repeats_are_refused(self):
        with pytest.raises(ValueError, match="house_sizes must not repeat a value, got 10 more than once"):
            ExperimentConfig(BINARY3, house_sizes=(10, 20, 10))
        with pytest.raises(ValueError, match="methods must not repeat a value, got 'adams' more than once"):
            ExperimentConfig(BINARY3, methods=("adams", MethodKind.ADAMS))

    def test_seeds_wrap_at_64_bits(self):
        # instance k is drawn from base_seed + k modulo 2**64, which
        # SplitMix64 applies, so a negative base names the same instances
        wrapped = ExperimentConfig(BINARY3, instance_count=3, base_seed=-2)
        plain = ExperimentConfig(BINARY3, instance_count=3, base_seed=2**64 - 2)
        assert emit_table(run_experiment(wrapped)) == emit_table(run_experiment(plain))

    def test_method_names_are_coerced_when_the_config_is_built(self):
        named = ExperimentConfig(BINARY3, instance_count=3, methods=("adams", "ucquota"))
        assert named.methods == (MethodKind.ADAMS, MethodKind.UC_QUOTA)
        kinds = ExperimentConfig(BINARY3, instance_count=3, methods=(MethodKind.ADAMS, MethodKind.UC_QUOTA))
        assert emit_table(run_experiment(named)) == emit_table(run_experiment(kinds))
        with pytest.raises(ValueError, match="'hamilton' is not a valid MethodKind"):
            ExperimentConfig(BINARY3, methods=("adams", "hamilton"))

    def test_mode_names_are_coerced_when_the_config_is_built(self):
        tables = []
        for mode in QuotaMode:
            named = ExperimentConfig(BINARY3, instance_count=20, house_sizes=(50,), mode=mode.value)
            assert named.mode is mode
            kinds = ExperimentConfig(BINARY3, instance_count=20, house_sizes=(50,), mode=mode)
            tables.append(emit_table(run_experiment(kinds)))
            assert emit_table(run_experiment(named)) == tables[-1]
        # the modes give different tables, so a value read as the other mode would show
        assert tables[0] != tables[1]
        with pytest.raises(ValueError, match="'bogus' is not a valid QuotaMode"):
            ExperimentConfig(BINARY3, mode="bogus")


class TestRowsAreSumsOfCells:
    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("max_weight", [3, 10, 50])
    @pytest.mark.parametrize("family", [BINARY3, FOURARY3], ids=["binary", "4ary"])
    def test_rows_match_summed_fractions(self, family, max_weight, workers):
        cfg = ExperimentConfig(
            family, instance_count=20, base_seed=max_weight, house_sizes=(37, 200), max_weight=max_weight
        )
        # the instances' deviations come over different denominators
        dens = {
            one_cell(assign_entitlements(build_tree(family), cfg.base_seed + k, max_weight),
                     MethodKind.ADAMS, 37)[2].denominator
            for k in range(cfg.instance_count)
        }
        assert len(dens) > 1
        table = run_experiment(cfg, workers=workers)
        expected = rows_by_summed_metrics(cfg)
        assert len(table.rows) == len(expected) == 8
        for row, (low, up, dev, dev_max, count) in zip(table.rows, expected):
            assert row.lower_violation_total == low
            assert row.upper_violation_total == up
            assert row.deviation_sum == dev
            assert row.deviation_max_sum == dev_max
            assert row.instance_count == count == 20
            assert type(row.deviation_sum) is type(row.deviation_max_sum) is Fraction

    @pytest.mark.parametrize(
        "method, counts, side",
        [(MethodKind.JEFFERSON, (2, 0), "lower"), (MethodKind.ADAMS, (0, 1), "upper")],
    )
    def test_a_broken_guarantee_raises(self, monkeypatch, method, counts, side):
        monkeypatch.setattr(experiments, "count_violations", lambda inst, seats, mode: counts)
        cfg = ExperimentConfig(BINARY3, instance_count=3, house_sizes=(10,), methods=(method,))
        total = 3 * counts[side == "upper"]
        with pytest.raises(RuntimeError, match=f"{method.value} produced {total} {side}-quota violations"):
            run_experiment(cfg)

    def test_worker_batch_holds_only_ints(self):
        den, batch = experiments._evaluate_batch(ExperimentConfig(FOURARY3, house_sizes=(100, 500)), 5)
        assert type(den) is int
        assert len(batch) == 8
        assert all(type(cell) is tuple and len(cell) == 4 for cell in batch)
        assert all(type(v) is int for cell in batch for v in cell)

    def test_serial_memory_does_not_grow_with_the_instance_count(self):
        def config(count):
            family = TreeFamily(TreeKind.PERFECT_BINARY, 1)
            return ExperimentConfig(family, instance_count=count, house_sizes=(1,), methods=(MethodKind.ADAMS,))

        # The first run builds the family tree and fills the interpreter's
        # free lists; the collector, which empties them, stays off while
        # memory is traced.
        run_experiment(config(3000))
        peaks = []
        enabled = gc.isenabled()
        gc.disable()
        try:
            for count in (300, 3000):
                tracemalloc.start()
                try:
                    run_experiment(config(count))
                    peaks.append(tracemalloc.get_traced_memory()[1])
                finally:
                    tracemalloc.stop()
        finally:
            if enabled:
                gc.enable()
        assert peaks[1] <= peaks[0] + 1024

    def test_serial_run_builds_each_family_tree_once(self):
        # build_tree caches each family's shape, so a cache miss is one build
        build_tree.cache_clear()
        try:
            run_experiment(ExperimentConfig(BINARY3, instance_count=12, house_sizes=(20,)))
            assert build_tree.cache_info().misses == 1
            run_experiment(ExperimentConfig(FOURARY3, instance_count=7, house_sizes=(20, 40)))
            run_experiment(ExperimentConfig(BINARY3, instance_count=3, base_seed=50))
            assert build_tree.cache_info().misses == 2
            # the command bounds the work on the same tree that the run draws on
            assert main(["experiment", "--family", "binary", "--height", "2", "--count", "2"]) == 0
            assert build_tree.cache_info().misses == 3
        finally:
            build_tree.cache_clear()


class TestFormatFixed:
    @pytest.mark.parametrize(
        "value,text",
        [
            (Fraction(0), "0.0000"),
            (Fraction(1, 16), "0.0625"),
            (Fraction(1, 3), "0.3333"),
            (Fraction(2, 3), "0.6667"),
            (Fraction(1, 20000), "0.0001"),
            (Fraction(3, 20000), "0.0002"),
            (Fraction(-1, 20000), "-0.0001"),
            (Fraction(-1, 100000), "0.0000"),
            (Fraction(-1, 20001), "0.0000"),
            (Fraction(12747, 10000), "1.2747"),
            (Fraction(100), "100.0000"),
        ],
    )
    def test_rounding(self, value, text):
        assert format_fixed(value) == text


class TestEmitTable:
    def make_table(self):
        cfg = ExperimentConfig(BINARY3, instance_count=5, house_sizes=(11, 23))
        return run_experiment(cfg)

    def test_csv_round_trips(self):
        table = self.make_table()
        text = emit_table(table, "csv")
        rows = list(csv.DictReader(io.StringIO(text)))
        assert len(rows) == len(table.rows)
        for parsed, row in zip(rows, table.rows):
            assert parsed["method"] == row.method.value
            assert parsed["family"] == row.family.kind.value
            assert int(parsed["height"]) == row.family.height
            assert int(parsed["n"]) == row.n
            assert int(parsed["h"]) == row.h
            for col, value in (
                ("lq_violation_rate_pct", row.lq_violation_rate_pct),
                ("uq_violation_rate_pct", row.uq_violation_rate_pct),
                ("avg_deviation", row.avg_deviation),
                ("max_deviation", row.max_deviation),
            ):
                assert parsed[col] == format_fixed(value)
                assert abs(Fraction(parsed[col]) - value) <= Fraction(1, 20000)

    def test_csv_header(self):
        text = emit_table(self.make_table(), "csv")
        assert text.splitlines()[0] == (
            "method,family,height,n,h,lq_violation_rate_pct,uq_violation_rate_pct,"
            "avg_deviation,max_deviation"
        )

    def test_markdown_shape(self):
        table = self.make_table()
        text = emit_table(table, "md")
        lines = text.splitlines()
        assert lines[0].startswith("| method | family |")
        assert set(lines[1]) <= {"|", "-"}
        assert len(lines) == 2 + len(table.rows)

    def test_empty_method_list_gives_header_only(self):
        cfg = ExperimentConfig(BINARY3, instance_count=3, methods=())
        table = run_experiment(cfg)
        assert emit_table(table, "csv").splitlines() == [
            "method,family,height,n,h,lq_violation_rate_pct,uq_violation_rate_pct,"
            "avg_deviation,max_deviation"
        ]

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError):
            emit_table(self.make_table(), "html")


class TestDeterminismAndParallel:
    CFG = ExperimentConfig(BINARY3, instance_count=24, base_seed=9, house_sizes=(40,))

    def test_rerun_is_byte_identical(self):
        a = emit_table(run_experiment(self.CFG), "csv")
        b = emit_table(run_experiment(self.CFG), "csv")
        assert a == b

    def test_parallel_matches_serial(self):
        serial = emit_table(run_experiment(self.CFG, workers=1), "csv")
        parallel = emit_table(run_experiment(self.CFG, workers=2), "csv")
        assert serial == parallel

    @pytest.mark.parametrize(
        "workers, count, pools",
        [(8, 2, [2]), (10**6, 3, [3]), (2, 5, [2]), (8, 1, []), (10**6, 50, [4])],
    )
    def test_pool_has_at_most_one_process_per_instance(self, monkeypatch, workers, count, pools):
        # A stand-in pool records its size and runs the tasks in this
        # process, on a host of four CPUs.
        made = []

        class RecordingPool:
            def __init__(self, processes):
                made.append(processes)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def imap_unordered(self, fn, tasks, chunksize=1):
                # last instance first: rows must not depend on the order
                return reversed([fn(task) for task in tasks])

        monkeypatch.setattr(multiprocessing, "Pool", RecordingPool)
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        cfg = ExperimentConfig(BINARY3, instance_count=count, base_seed=3, house_sizes=(20,))
        table = emit_table(run_experiment(cfg, workers=workers))
        assert made == pools
        assert table == emit_table(run_experiment(cfg))

    @pytest.mark.parametrize("count, chunk", [(10**6, 256), (4 * 10**5, 256), (2000, 250), (3, 1)])
    def test_pool_tasks_hold_a_bounded_number_of_instances(self, monkeypatch, count, chunk):
        # A stand-in pool of two processes records the chunk size and
        # evaluates nothing: a task of many instances would be sent back
        # as one message, so the calling process's memory would grow with
        # the count.
        sizes = []

        class ChunkPool:
            def __init__(self, processes):
                pass

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def imap_unordered(self, fn, tasks, chunksize=1):
                sizes.append((len(tasks), chunksize))
                return iter(())

        monkeypatch.setattr(multiprocessing, "Pool", ChunkPool)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        monkeypatch.setattr(experiments, "_evaluate_batch", lambda *args: pytest.fail("evaluated"))
        run_experiment(ExperimentConfig(BINARY3, instance_count=count), workers=2)
        assert sizes == [(count, chunk)]

    @pytest.mark.parametrize("workers", [0, -3, True, False, 2.0, "2", None])
    def test_workers_must_be_an_int_of_at_least_one(self, monkeypatch, workers):
        # refused before any instance is drawn
        monkeypatch.setattr(experiments, "_evaluate_batch", None)
        with pytest.raises(ValueError, match="workers must be an integer of at least 1, got"):
            run_experiment(self.CFG, workers=workers)

    def test_importing_the_package_leaves_multiprocessing_out(self):
        code = 'import sys, apportree, apportree.cli; print("multiprocessing" in sys.modules)'
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
        assert done.stdout == "False\n"


class TestConfigFromJson:
    def test_full_document(self):
        cfg = config_from_json(
            json.dumps(
                {
                    "family": {"kind": "4ary", "height": 4},
                    "instance_count": 12,
                    "base_seed": 3,
                    "house_sizes": [10, 20],
                    "methods": ["adams", "ucquota"],
                    "mode": "root",
                    "max_weight": 5,
                }
            )
        )
        assert cfg.family == TreeFamily(TreeKind.FULL_4ARY, 4)
        assert cfg.instance_count == 12
        assert cfg.base_seed == 3
        assert cfg.house_sizes == (10, 20)
        assert cfg.methods == (MethodKind.ADAMS, MethodKind.UC_QUOTA)
        assert cfg.mode is QuotaMode.ROOT_ONLY
        assert cfg.max_weight == 5

    def test_defaults_fill_in(self):
        cfg = config_from_json('{"family": {"kind": "binary", "height": 3}}')
        assert cfg.instance_count == 1000
        assert cfg.house_sizes == (100, 500)
        assert cfg.methods == ALL_METHODS
        assert cfg.mode is QuotaMode.ALL_ANCESTORS

    @pytest.mark.parametrize(
        "doc",
        [
            "[]",
            "{}",
            '{"family": {"kind": "ternary", "height": 3}}',
            '{"family": {"kind": "binary", "height": 0}}',
            '{"family": {"kind": "binary", "height": 3}, "methods": ["webster"]}',
            '{"family": {"kind": "binary", "height": 3}, "methods": "adams"}',
            '{"family": {"kind": "binary", "height": 3}, "instance_count": null}',
            '{"family": {"kind": "binary", "height": 3}, "instance_count": true}',
            '{"family": {"kind": "binary", "height": 3}, "instance_count": 2.9}',
            '{"family": {"kind": "binary", "height": 3}, "instance_count": "\u0662"}',
            '{"family": {"kind": "binary", "height": 3}, "base_seed": "1"}',
            '{"family": {"kind": "binary", "height": 3}, "max_weight": 1.0}',
            '{"family": {"kind": "binary", "height": 3}, "house_sizes": 5}',
            '{"family": {"kind": "binary", "height": 3}, "house_sizes": [{}]}',
            '{"family": {"kind": "binary", "height": 3}, "house_sizes": [true]}',
            '{"family": {"kind": "binary", "height": 3}, "mode": "bogus"}',
            '{"family": {"kind": "binary", "height": 3}, "house_size": [7]}',
            '{"family": {"kind": "binary", "height": 3, "max_weight": 5}}',
        ],
    )
    def test_bad_documents_rejected(self, doc):
        with pytest.raises(ValueError):
            config_from_json(doc)