"""Experiment harness: exact aggregation, table rendering, determinism."""

from __future__ import annotations

import csv
import io
import json
from fractions import Fraction

import pytest

from apportree import (
    ALL_METHODS,
    ExperimentConfig,
    MethodKind,
    QuotaMode,
    TreeFamily,
    TreeKind,
    assign_entitlements,
    build_tree,
    config_from_json,
    emit_table,
    evaluate_instance,
    format_fixed,
    run_experiment,
)

BINARY3 = TreeFamily(TreeKind.PERFECT_BINARY, 3)
FOURARY3 = TreeFamily(TreeKind.FULL_4ARY, 3)


class TestEvaluateInstance:
    def test_quota_counts_the_known_upper_violation(self, nested5):
        m = evaluate_instance(nested5, MethodKind.QUOTA, 5)
        assert m.upper_violations == 1
        assert m.lower_violations == 0

    def test_uc_quota_counts_the_known_lower_violation(self, deep7):
        m = evaluate_instance(deep7, MethodKind.UC_QUOTA, 5)
        assert m.lower_violations == 1
        assert m.upper_violations == 0

    @pytest.mark.parametrize("method", list(MethodKind))
    def test_single_node_is_exact(self, single, method):
        m = evaluate_instance(single, method, 12)
        assert m.lower_violations == m.upper_violations == 0
        assert m.deviation_sum == m.deviation_max == 0

    def test_deviations_are_exact_rationals(self, sym7):
        from apportree import relative_entitlements, run_method

        m = evaluate_instance(sym7, MethodKind.ADAMS, 5)
        seats = run_method(sym7, MethodKind.ADAMS, 5).final.seats
        shares = relative_entitlements(sym7)
        devs = [abs(Fraction(seats[i]) - shares[i] * 5) for i in range(7)]
        assert isinstance(m.deviation_sum, Fraction)
        assert m.deviation_sum == sum(devs)
        assert m.deviation_max == max(devs)
        assert m.deviation_max.denominator == 4


class TestRunExperiment:
    def test_single_instance_table_matches_direct_evaluation(self):
        cfg = ExperimentConfig(BINARY3, instance_count=1, base_seed=77, house_sizes=(100,))
        table = run_experiment(cfg)
        inst = assign_entitlements(build_tree(BINARY3), 77)
        for row in table.rows:
            m = evaluate_instance(inst, row.method, 100)
            assert row.instance_count == 1
            assert row.lower_violation_total == m.lower_violations
            assert row.upper_violation_total == m.upper_violations
            assert row.deviation_sum == m.deviation_sum
            assert row.deviation_max_sum == m.deviation_max
            assert row.avg_deviation == m.deviation_sum / inst.n
            assert row.max_deviation == m.deviation_max

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
            (Fraction(12747, 10000), "1.2747"),
            (Fraction(100), "100.0000"),
        ],
    )
    def test_rounding(self, value, text):
        assert format_fixed(value) == text

    def test_places(self):
        assert format_fixed(Fraction(1, 3), 2) == "0.33"
        assert format_fixed(Fraction(5, 10), 1) == "0.5"
        assert format_fixed(Fraction(349, 1000), 2) == "0.35"


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
        ],
    )
    def test_bad_documents_rejected(self, doc):
        with pytest.raises(ValueError):
            config_from_json(doc)