"""Command-line behaviour: output shapes, exit codes, determinism."""

from __future__ import annotations

import gc
import io
import json
import math
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from time import perf_counter

import pytest
from hypothesis import example, given, strategies as st

from apportree import (
    Allocation,
    ExperimentConfig,
    Instance,
    MethodKind,
    QuotaMode,
    SplitMix64,
    TreeFamily,
    TreeKind,
    allocate_both_quotas,
    allocation_to_json,
    brute_force_both_quotas,
    check_allocation,
    emit_table,
    instance_from_json,
    instance_to_json,
    run_experiment,
    run_method,
    to_full_binary,
    validate_instance,
)
from apportree.cli import SEED_ENV_VAR, main

import apportree.cli as cli
import apportree.core as core
import apportree.methods as methods

from conftest import (
    flat_instance,
    heavy_spine,
    irregular_instances,
    make_deep7,
    make_flat5,
    make_nested5,
    make_sym7,
)


@pytest.fixture
def sym7_file(tmp_path, sym7):
    path = tmp_path / "sym7.json"
    path.write_text(instance_to_json(sym7))
    return str(path)


@pytest.fixture
def flat5_file(tmp_path, flat5):
    path = tmp_path / "flat5.json"
    path.write_text(instance_to_json(flat5))
    return str(path)


@pytest.fixture
def deep7_file(tmp_path, deep7):
    path = tmp_path / "deep7.json"
    path.write_text(instance_to_json(deep7))
    return str(path)


def write(tmp_path, name: str, text: str) -> str:
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestValidate:
    def test_valid_file(self, sym7_file, capsys):
        assert main(["validate", sym7_file]) == 0
        assert capsys.readouterr().out.strip() == "valid: 7 nodes"

    def test_unnormalized_weights(self, tmp_path, capsys):
        doc = {
            "nodes": [
                {"id": 0, "parent": None, "weight": "1"},
                {"id": 1, "parent": 0, "weight": "1/2"},
                {"id": 2, "parent": 0, "weight": "1/3"},
            ]
        }
        path = write(tmp_path, "bad.json", json.dumps(doc))
        assert main(["validate", path]) == 1
        out = capsys.readouterr().out
        assert "ChildrenWeightsNotNormalized" in out
        assert "5/6" in out

    def test_malformed_json_reports_position(self, tmp_path, capsys):
        path = write(tmp_path, "broken.json", '{"nodes": [,]}')
        assert main(["validate", path]) == 1
        err = capsys.readouterr().err
        assert "line 1" in err and "column" in err

    def test_missing_file(self, tmp_path, capsys):
        assert main(["validate", str(tmp_path / "nope.json")]) == 1
        assert "cannot read" in capsys.readouterr().err


class TestAllocate:
    def test_adams_known_allocation(self, sym7_file, capsys):
        assert main(["allocate", sym7_file, "--method", "adams", "--seats", "6"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc == {"h": 6, "seats": [6, 2, 1, 2, 1, 3, 3]}

    def test_jefferson_known_allocation(self, flat5_file, capsys):
        assert main(["allocate", flat5_file, "--method", "jefferson", "--seats", "6"]) == 0
        assert json.loads(capsys.readouterr().out)["seats"] == [6, 2, 2, 1, 1]

    def test_trajectory_lists_every_house_size(self, sym7_file, capsys):
        assert (
            main(["allocate", sym7_file, "--method", "ucquota", "--seats", "4", "--trajectory"])
            == 0
        )
        doc = json.loads(capsys.readouterr().out)
        steps = doc["trajectory"]
        assert len(steps) == 5
        assert steps[0] == [0] * 7
        assert steps[-1] == doc["seats"]
        for before, after in zip(steps, steps[1:]):
            assert all(a <= b for a, b in zip(before, after))

    @pytest.mark.parametrize(
        "method, expected",
        [
            (
                "adams",
                '{"h": 5, "seats": [5, 4, 1, 3, 1, 2, 1], "trajectory": [[0, 0, 0, 0, 0, 0, 0], '
                "[1, 1, 0, 1, 0, 1, 0], [2, 1, 1, 1, 0, 1, 0], [3, 2, 1, 1, 1, 1, 0], "
                "[4, 3, 1, 2, 1, 1, 1], [5, 4, 1, 3, 1, 2, 1]]}\n",
            ),
            (
                "ucquota",
                '{"h": 5, "seats": [5, 5, 0, 4, 1, 3, 1], "trajectory": [[0, 0, 0, 0, 0, 0, 0], '
                "[1, 1, 0, 1, 0, 1, 0], [2, 2, 0, 2, 0, 2, 0], [3, 3, 0, 3, 0, 3, 0], "
                "[4, 4, 0, 4, 0, 3, 1], [5, 5, 0, 4, 1, 3, 1]]}\n",
            ),
        ],
    )
    def test_trajectory_json_is_frozen(self, deep7_file, capsys, method, expected):
        argv = ["allocate", deep7_file, "--method", method, "--seats", "5", "--trajectory"]
        assert main(argv) == 0
        assert capsys.readouterr().out == expected

    def test_uc_quota_over_budget_exits_at_once(self, sym7_file, capsys):
        start = perf_counter()
        assert main(["allocate", sym7_file, "--method", "ucquota", "--seats", "1000000000"]) == 1
        assert perf_counter() - start < 5
        assert capsys.readouterr() == (
            "",
            "error: ucquota at h=1000000000 may take 2000000000 steps, over the budget of 8000000\n",
        )

    def test_refused_allocate_builds_no_plan(self, sym7_file, tmp_path, capsys, monkeypatch):
        # the work bound reads the child lists and weight denominators
        # alone, caps handed on as pairs included
        calls = []
        original = methods._build_plan
        monkeypatch.setattr(methods, "_build_plan", lambda inst: calls.append(inst) or original(inst))
        spine = write(tmp_path, "spine.json", instance_to_json(heavy_spine(1000)))
        for path, h, line in (
            (sym7_file, 10**9, "error: ucquota at h=1000000000 may take 2000000000 steps, over the budget of 8000000\n"),
            (spine, 4009, "error: ucquota at h=4009 may take 8001964 steps, over the budget of 8000000\n"),
        ):
            assert main(["allocate", path, "--method", "ucquota", "--seats", str(h)]) == 1
            assert capsys.readouterr() == ("", line)
        assert calls == []
        assert main(["allocate", sym7_file, "--method", "ucquota", "--seats", "10"]) == 0
        assert len(calls) == 1

    def test_uc_quota_budget_is_h_times_height(self, sym7_file, flat5_file, capsys, monkeypatch):
        # sym7 is binary of height 2, a step a seat at each level: ten
        # seats are 20 steps, eleven are 22
        monkeypatch.setattr(cli, "_WORK_BUDGET", 20)
        assert main(["allocate", sym7_file, "--method", "ucquota", "--seats", "10"]) == 0
        assert main(["allocate", sym7_file, "--method", "ucquota", "--seats", "11"]) == 1
        # flat5's root splits on a heap of four, two steps a seat
        assert main(["allocate", flat5_file, "--method", "ucquota", "--seats", "10"]) == 0
        assert main(["allocate", flat5_file, "--method", "ucquota", "--seats", "11"]) == 1
        # the other methods' work does not grow with h
        assert main(["allocate", sym7_file, "--method", "jefferson", "--seats", "11"]) == 0

    def test_uc_quota_budget_charges_pairs_on_the_heap(self, tmp_path, capsys, monkeypatch):
        # Each level of a heavy spine multiplies the caps denominator by
        # 10**4, so from depth 4 down its nodes hand their caps on as
        # pairs, split on a heap of two at 2 steps a seat.  Six levels are
        # 4 + 2 * 2 = 8 steps a seat, and 6 while the limit keeps every
        # cap in one list.
        path = write(tmp_path, "spine6.json", instance_to_json(heavy_spine(6)))
        argv = ["allocate", path, "--method", "ucquota", "--seats"]
        monkeypatch.setattr(cli, "_WORK_BUDGET", 80)
        assert main(argv + ["10"]) == 0
        assert main(argv + ["11"]) == 1
        monkeypatch.setattr(methods, "_Q_LIMIT", 10**30)
        assert main(argv + ["13"]) == 0
        assert main(argv + ["14"]) == 1
        capsys.readouterr()
        # 1000 levels are 4 + 2 * 996 = 1996 steps a seat: the budget
        # admits 4008 seats (about 1.5 s) and refuses 4009 at once
        monkeypatch.undo()
        path = write(tmp_path, "spine.json", instance_to_json(heavy_spine(1000)))
        argv = ["allocate", path, "--method", "ucquota", "--seats"]
        assert main(argv + ["4008"]) == 0
        assert capsys.readouterr().err == ""
        assert main(argv + ["4009"]) == 1
        assert capsys.readouterr() == (
            "",
            "error: ucquota at h=4009 may take 8001964 steps, over the budget of 8000000\n",
        )

    def test_uc_quota_on_thirty_six_decimal_children_exits_at_once(self, tmp_path, capsys):
        # three steps a seat on a heap of 30, where a seat parks a child
        # four times in ten: the run would take about 8-12 s
        rng = SplitMix64(6)
        raw = [rng.randint(1, 30000) for _ in range(29)]
        raw.append(10**6 - sum(raw))
        path = write(tmp_path, "w.json", instance_to_json(flat_instance([Fraction(r, 10**6) for r in raw])))
        start = perf_counter()
        assert main(["allocate", path, "--method", "ucquota", "--seats", "10000000"]) == 1
        assert perf_counter() - start < 1
        assert capsys.readouterr() == (
            "",
            "error: ucquota at h=10000000 may take 30000000 steps, over the budget of 8000000\n",
        )

    def test_quota_over_budget_exits_at_once(self, tmp_path, capsys):
        # one node of 30 children with seven-decimal weights: D = 10**7,
        # so up to 3 * 10**6 of the house's seats are handed out one by
        # one, each 3 steps on a heap of 30
        raw = [333333] * 29 + [10**7 - 29 * 333333]
        inst = flat_instance([Fraction(r, 10**7) for r in raw])
        path = write(tmp_path, "wide.json", instance_to_json(inst))
        start = perf_counter()
        assert main(["allocate", path, "--method", "quota", "--seats", "3000000"]) == 1
        assert perf_counter() - start < 5
        assert capsys.readouterr() == (
            "",
            "error: quota at h=3000000 may take 9000000 steps, over the budget of 8000000\n",
        )
        # the same house hands out at most b seats one by one for the
        # divisor methods
        assert main(["allocate", path, "--method", "jefferson", "--seats", "3000000"]) == 0

    def test_quota_budget_is_the_smaller_bound(self, flat5_file, capsys, monkeypatch):
        # flat5's four children have D = 20: at most 19 seats one by one,
        # and at most h of them at a house of h, each 2 steps on the heap
        monkeypatch.setattr(cli, "_WORK_BUDGET", 37)
        argv = ["allocate", flat5_file, "--method", "quota", "--seats"]
        assert main(argv + ["18"]) == 0
        assert main(argv + ["19"]) == 1
        assert capsys.readouterr().err.startswith("error: quota at h=19 may take 38 steps")
        monkeypatch.setattr(cli, "_WORK_BUDGET", 38)
        assert main(argv + ["1000000000"]) == 0
        # Adams and Jefferson hand out at most b = 4 seats one by one
        for method in ("adams", "jefferson"):
            argv = ["allocate", flat5_file, "--method", method, "--seats"]
            monkeypatch.setattr(cli, "_WORK_BUDGET", 7)
            assert main(argv + ["3"]) == 0
            assert main(argv + ["4"]) == 1
            assert capsys.readouterr().err.startswith(f"error: {method} at h=4 may take 8 steps")
            monkeypatch.setattr(cli, "_WORK_BUDGET", 8)
            assert main(argv + ["1000000000"]) == 0

    def test_quota_budget_sums_the_depths(self, tmp_path, capsys, monkeypatch):
        # a root of three children (D = 3) over two of flat5's shape
        # (D = 20) and a two-child node at depth 1, two steps a seat on
        # each heap: min(2 * 2, 2 * h) + min(2 * 19 * 2, 2 * h), the
        # two-child node free
        parents = [None, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2, 3, 3]
        group = [Fraction(2, 5), Fraction(3, 10), Fraction(3, 20), Fraction(3, 20)]
        third = Fraction(1, 3)
        inst = Instance(parents, [Fraction(1), third, third, third] + group + group + [Fraction(1, 2)] * 2)
        path = write(tmp_path, "levels.json", instance_to_json(inst))
        argv = ["allocate", path, "--method", "quota", "--seats"]
        monkeypatch.setattr(cli, "_WORK_BUDGET", 80)
        assert main(argv + ["1000"]) == 0
        monkeypatch.setattr(cli, "_WORK_BUDGET", 79)
        assert main(argv + ["1000"]) == 1
        assert main(argv + ["37"]) == 0
        assert main(argv + ["38"]) == 1
        # UC-quota pays each depth's largest cost on every seat: 2h + 2h
        argv = ["allocate", path, "--method", "ucquota", "--seats"]
        monkeypatch.setattr(cli, "_WORK_BUDGET", 80)
        assert main(argv + ["20"]) == 0
        assert main(argv + ["21"]) == 1
        # a binary tree costs the quota method nothing at any house
        monkeypatch.setattr(cli, "_WORK_BUDGET", 0)
        sym7 = write(tmp_path, "sym7.json", instance_to_json(make_sym7()))
        assert main(["allocate", sym7, "--method", "quota", "--seats", "1000000000"]) == 0

    def test_trajectory_over_budget_exits_at_once(self, sym7_file, capsys):
        start = perf_counter()
        argv = ["allocate", sym7_file, "--method", "jefferson", "--seats", "1000000000", "--trajectory"]
        assert main(argv) == 1
        assert perf_counter() - start < 5
        assert capsys.readouterr() == (
            "",
            "error: --trajectory at h=1000000000 on a tree of 7 nodes prints 7000000007 "
            "seat counts, over the budget of 2000000\n",
        )

    @pytest.mark.parametrize("method", ["adams", "jefferson", "quota", "ucquota"])
    def test_trajectory_budget_is_h_plus_one_times_n(self, sym7_file, capsys, monkeypatch, method):
        # sym7 has 7 nodes: nine seats print 10 allocations, 70 counts
        monkeypatch.setattr(cli, "_TRAJECTORY_BUDGET", 70)
        argv = ["allocate", sym7_file, "--method", method, "--seats"]
        assert main(argv + ["9", "--trajectory"]) == 0
        assert len(json.loads(capsys.readouterr().out)["trajectory"]) == 10
        assert main(argv + ["10", "--trajectory"]) == 1
        assert capsys.readouterr().err.startswith("error: --trajectory at h=10 on a tree of 7 nodes")
        # without --trajectory only the final allocation is printed
        assert main(argv + ["10"]) == 0

    def test_both_quotas_notice_and_validity(self, deep7_file, capsys, deep7):
        assert main(["allocate", deep7_file, "--method", "both-quotas", "--seats", "5"]) == 0
        captured = capsys.readouterr()
        assert "not house monotone" in captured.err
        doc = json.loads(captured.out)
        report = check_allocation(deep7, Allocation(doc["h"], tuple(doc["seats"])))
        assert report.ok

    def test_both_quotas_rejects_trajectory_flag(self, sym7_file, capsys):
        code = main(
            ["allocate", sym7_file, "--method", "both-quotas", "--seats", "5", "--trajectory"]
        )
        assert code == 2

    def test_negative_seats_is_domain_error(self, sym7_file, capsys):
        # one error line, with no both-quotas note before it
        for method in ("adams", "both-quotas"):
            assert main(["allocate", sym7_file, "--method", method, "--seats", "-3"]) == 1
            assert capsys.readouterr() == ("", "error: house size must be a non-negative integer\n")

    def test_unknown_method_is_usage_error(self, sym7_file, capsys):
        assert main(["allocate", sym7_file, "--method", "webster", "--seats", "3"]) == 2

    def test_invalid_instance_is_domain_error(self, tmp_path, capsys):
        doc = {
            "nodes": [
                {"id": 0, "parent": None, "weight": "1"},
                {"id": 1, "parent": 0, "weight": "1/2"},
                {"id": 2, "parent": 0, "weight": "1/3"},
            ]
        }
        path = write(tmp_path, "bad.json", json.dumps(doc))
        assert main(["allocate", path, "--method", "adams", "--seats", "3"]) == 1
        assert "ChildrenWeightsNotNormalized" in capsys.readouterr().err


    @pytest.mark.parametrize("weight", ["1.5", "\u0663/\u0664"])
    @pytest.mark.parametrize("command", ["validate", "allocate"])
    def test_unparsable_weight_is_domain_error(self, tmp_path, capsys, weight, command):
        doc = {
            "nodes": [
                {"id": 0, "parent": None, "weight": "1"},
                {"id": 1, "parent": 0, "weight": weight},
                {"id": 2, "parent": 0, "weight": "1/4"},
            ]
        }
        path = write(tmp_path, "weights.json", json.dumps(doc))
        argv = [command, path] + (["--method", "adams", "--seats", "3"] if command == "allocate" else [])
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert "WeightOutOfRange" in captured.out + captured.err
        assert "Traceback" not in captured.err


class TestCheck:
    def test_clean_allocation(self, sym7_file, tmp_path, capsys):
        alloc = write(tmp_path, "ok.json", allocation_to_json(Allocation(6, (6, 1, 2, 1, 2, 3, 3))))
        assert main(["check", sym7_file, alloc]) == 0
        assert "ok: allocation satisfies both quotas" in capsys.readouterr().out

    def test_violations_reported_without_strict(self, sym7_file, tmp_path, capsys):
        alloc = write(tmp_path, "bad.json", allocation_to_json(Allocation(6, (6, 2, 2, 1, 1, 4, 2))))
        assert main(["check", sym7_file, alloc]) == 0
        out = capsys.readouterr().out
        assert "node 5: 4 seats above upper quota 3" in out
        assert "node 6: 2 seats below lower quota 3" in out
        assert "lower violations: 1, upper violations: 1" in out

    def test_strict_turns_violations_into_exit_1(self, sym7_file, tmp_path, capsys):
        alloc = write(tmp_path, "bad.json", allocation_to_json(Allocation(6, (6, 2, 2, 1, 1, 4, 2))))
        assert main(["check", sym7_file, alloc, "--strict"]) == 1
        out = capsys.readouterr().out
        assert "node 5" in out and "node 6" in out

    def test_root_only_mode_can_pass_where_all_mode_fails(self, deep7_file, tmp_path, capsys):
        # Node 5 sits below its share of node 1's seats but within its share
        # of the root's, so the violation exists only in all-ancestors mode.
        alloc = write(tmp_path, "a.json", allocation_to_json(Allocation(5, (5, 5, 0, 4, 1, 3, 1))))
        assert main(["check", deep7_file, alloc, "--strict"]) == 1
        assert "node 5" in capsys.readouterr().out
        assert main(["check", deep7_file, alloc, "--mode", "root", "--strict"]) == 0
        assert "ok:" in capsys.readouterr().out

    def test_flow_violation_reported(self, sym7_file, tmp_path, capsys):
        alloc = write(tmp_path, "f.json", allocation_to_json(Allocation(7, (6, 2, 1, 2, 1, 3, 3))))
        main(["check", sym7_file, alloc])
        assert "root has 6 seats for house size 7" in capsys.readouterr().out

    def test_malformed_allocation_json(self, sym7_file, tmp_path, capsys):
        alloc = write(tmp_path, "junk.json", "{")
        assert main(["check", sym7_file, alloc]) == 1
        assert "invalid JSON" in capsys.readouterr().err


def render_check(inst, alloc: Allocation, mode: QuotaMode, strict: bool) -> tuple[int, str]:
    """Exit code and stdout ``check`` owes for ``alloc``, from the library's report."""
    report = check_allocation(inst, alloc, mode)
    lines = []
    for i in report.flow_violations:
        if i == 0 and alloc.seats[0] != alloc.h:
            lines.append(f"node 0: root has {alloc.seats[0]} seats for house size {alloc.h}")
        else:
            lines.append(f"node {i}: seats do not equal the sum over its children")
    for b in report.bounds:
        if report.lower_violated[b.node]:
            lines.append(
                f"node {b.node}: {alloc.seats[b.node]} seats below lower quota {b.lower} "
                f"(binding ancestor {b.binding_lower_ancestor})"
            )
        if report.upper_violated[b.node]:
            lines.append(
                f"node {b.node}: {alloc.seats[b.node]} seats above upper quota {b.upper} "
                f"(binding ancestor {b.binding_upper_ancestor})"
            )
    if report.ok:
        lines.append("ok: allocation satisfies both quotas at every node")
        return 0, "\n".join(lines) + "\n"
    lines.append(
        f"lower violations: {report.lower_violation_count}, "
        f"upper violations: {report.upper_violation_count}, "
        f"flow violations: {len(report.flow_violations)}"
    )
    return (1 if strict else 0), "\n".join(lines) + "\n"


CHECK_CASES = {
    "clean": (make_sym7, Allocation(6, (6, 1, 2, 1, 2, 3, 3))),
    "lower-and-upper": (make_sym7, Allocation(6, (6, 2, 2, 1, 1, 4, 2))),
    "internal-flow": (make_sym7, Allocation(6, (6, 2, 2, 1, 2, 3, 3))),
    "root-size": (make_sym7, Allocation(7, (6, 1, 2, 1, 2, 3, 3))),
    "root-flow": (make_sym7, Allocation(7, (7, 1, 2, 1, 2, 3, 3))),
    "everything": (make_sym7, Allocation(9, (5, 0, 4, 0, 0, 3, 1))),
    "ancestor-only-lower": (make_deep7, Allocation(5, (5, 5, 0, 4, 1, 3, 1))),
    "nested-upper": (make_nested5, Allocation(5, (5, 5, 0, 5, 0))),
    "flat-lower-and-upper": (make_flat5, Allocation(20, (20, 5, 9, 3, 3))),
    # two seats moved from node 6 to its sibling 5 in a compliant allocation
    "both-quotas-shifted": (make_deep7, Allocation(40, (40, 36, 4, 32, 4, 30, 2))),
    # in all-ancestors mode node 5's bounds cross: lower 2, upper 0
    "below-and-above-at-once": (make_deep7, Allocation(3, (3, 0, 0, 0, 0, 1, 0))),
}


class TestCheckOutput:
    """``check`` prints exactly what the library's report says, byte for byte."""

    @pytest.mark.parametrize("strict", [False, True])
    @pytest.mark.parametrize("mode", list(QuotaMode))
    @pytest.mark.parametrize("case", sorted(CHECK_CASES))
    def test_matches_report(self, case, mode, strict, tmp_path, capsys):
        make, alloc = CHECK_CASES[case]
        inst = make()
        path = write(tmp_path, "inst.json", instance_to_json(inst))
        apath = write(tmp_path, "alloc.json", allocation_to_json(alloc))
        expected_rc, expected_out = render_check(inst, alloc, mode, strict)
        argv = ["check", path, apath, "--mode", mode.value] + (["--strict"] if strict else [])
        assert main(argv) == expected_rc
        assert capsys.readouterr() == (expected_out, "")

    def test_cases_cover_every_kind_of_violation(self):
        reports = [check_allocation(make(), alloc) for make, alloc in CHECK_CASES.values()]
        assert any(r.lower_violation_count for r in reports)
        assert any(r.upper_violation_count for r in reports)
        assert any(r.flow_violations and r.flow_violations[0] != 0 for r in reports)
        assert any(0 in r.flow_violations for r in reports)
        assert any(r.ok for r in reports)
        assert any(lo and up for r in reports for lo, up in zip(r.lower_violated, r.upper_violated))

    def test_builds_no_quota_bounds(self, tmp_path, capsys, monkeypatch):
        path = write(tmp_path, "inst.json", instance_to_json(make_sym7()))
        good = write(tmp_path, "good.json", allocation_to_json(CHECK_CASES["clean"][1]))
        bad = write(tmp_path, "bad.json", allocation_to_json(CHECK_CASES["everything"][1]))
        expected = render_check(make_sym7(), CHECK_CASES["everything"][1], QuotaMode.ALL_ANCESTORS, True)

        def refuse(*args, **kwargs):
            raise AssertionError("check must not build per-node report objects")

        monkeypatch.setattr(core, "QuotaBounds", refuse)
        monkeypatch.setattr(core, "check_allocation", refuse)
        assert main(["check", path, good, "--strict"]) == 0
        assert capsys.readouterr().out.startswith("ok:")
        assert main(["check", path, bad, "--strict"]) == expected[0]
        assert capsys.readouterr().out == expected[1]

    @given(st.data())
    def test_matches_report_on_drawn_allocations(self, tmp_path_factory, data):
        # clean or not, with or without a flow break, check prints the report's verdict
        inst = data.draw(irregular_instances(max_nodes=15))
        h = data.draw(st.integers(0, 200))
        kind = data.draw(st.sampled_from(["both-quotas", "seat-moved", "flow-break", "walked"]))
        if kind == "walked":
            # a walking method's seats: flow kept, often out of an ancestor's quota only
            seats = list(run_method(inst, data.draw(st.sampled_from(list(MethodKind))), h).final.seats)
        else:
            seats = list(allocate_both_quotas(inst, h).seats)
        pairs = [(a, b) for kids in inst.children for a in kids for b in kids if a != b and seats[a]]
        if kind == "seat-moved" and pairs:
            # one seat from a leaf under a to a leaf under b, flow kept
            a, b = data.draw(st.sampled_from(pairs))
            while True:
                seats[a] -= 1
                if not inst.children[a]:
                    break
                a = next(c for c in inst.children[a] if seats[c])
            while True:
                seats[b] += 1
                if not inst.children[b]:
                    break
                b = inst.children[b][0]
        elif kind == "flow-break":
            # off by one, so that often every quota still holds
            i = data.draw(st.integers(0, inst.n - 1))
            seats[i] = abs(seats[i] + data.draw(st.sampled_from([-1, 1])))
        alloc = Allocation(h, tuple(seats))
        folder = tmp_path_factory.mktemp("check")
        path = write(folder, "inst.json", instance_to_json(inst))
        apath = write(folder, "alloc.json", allocation_to_json(alloc))
        for mode in QuotaMode:
            for strict in (False, True):
                argv = ["check", path, apath, "--mode", mode.value] + (["--strict"] if strict else [])
                out, err = io.StringIO(), io.StringIO()
                with redirect_stdout(out), redirect_stderr(err):
                    code = main(argv)
                assert (code, out.getvalue(), err.getvalue()) == (*render_check(inst, alloc, mode, strict), "")


class TestReduce:
    def test_flat_four_way(self, tmp_path, capsys):
        quarter = "1/4"
        doc = {
            "nodes": [{"id": 0, "parent": None, "weight": "1"}]
            + [{"id": i, "parent": 0, "weight": quarter} for i in range(1, 5)]
        }
        path = write(tmp_path, "flat4.json", json.dumps(doc))
        assert main(["reduce", path]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["node_map"] == [0, 1, 2, 3, 4]
        assert out["introduced"] == [5, 6]
        reduced = instance_from_json(json.dumps({"nodes": out["nodes"]}))
        assert validate_instance(reduced) == []
        assert reduced.weights[5] == Fraction(3, 4)
        assert reduced.weights[6] == Fraction(2, 3)

    @given(st.one_of(irregular_instances(), irregular_instances(max_weight=1000)))
    # already binary, so it prints "introduced": []
    @example(make_sym7())
    def test_prints_the_indented_document(self, tmp_path_factory, inst):
        path = write(tmp_path_factory.mktemp("reduce"), "inst.json", instance_to_json(inst))
        out = io.StringIO()
        with redirect_stdout(out):
            assert main(["reduce", path]) == 0
        reduction = to_full_binary(inst)
        reduced = reduction.reduced
        doc = {
            "nodes": [
                {"id": i, "parent": reduced.parents[i], "weight": str(reduced.weights[i])}
                for i in reduced.bfs_order()
            ],
            "node_map": list(reduction.node_map),
            "introduced": list(reduction.introduced),
        }
        assert out.getvalue() == json.dumps(doc, indent=2) + "\n"


class TestGenerate:
    ARGS = ["generate", "--family", "binary", "--height", "1"]

    def test_seeded_output_is_a_valid_instance(self, capsys):
        assert main(self.ARGS + ["--seed", "5"]) == 0
        inst = instance_from_json(capsys.readouterr().out)
        assert inst.n == 3
        assert validate_instance(inst) == []

    def test_deterministic_across_runs(self, capsys):
        main(self.ARGS + ["--seed", "123"])
        first = capsys.readouterr().out
        main(self.ARGS + ["--seed", "123"])
        assert capsys.readouterr().out == first

    def test_seed_required_without_env(self, capsys, monkeypatch):
        monkeypatch.delenv(SEED_ENV_VAR, raising=False)
        assert main(self.ARGS) == 2
        assert SEED_ENV_VAR in capsys.readouterr().err

    def test_env_var_supplies_default_seed(self, capsys, monkeypatch):
        monkeypatch.setenv(SEED_ENV_VAR, "123")
        main(self.ARGS)
        from_env = capsys.readouterr().out
        main(self.ARGS + ["--seed", "123"])
        assert capsys.readouterr().out == from_env

    def test_flag_beats_env_var(self, capsys, monkeypatch):
        monkeypatch.setenv(SEED_ENV_VAR, "123")
        main(self.ARGS + ["--seed", "7"])
        with_flag = capsys.readouterr().out
        monkeypatch.delenv(SEED_ENV_VAR)
        main(self.ARGS + ["--seed", "7"])
        assert capsys.readouterr().out == with_flag

    def test_bad_env_var(self, capsys, monkeypatch):
        monkeypatch.setenv(SEED_ENV_VAR, "not-a-number")
        assert main(self.ARGS) == 2

    def test_unsupported_height(self, capsys):
        assert main(["generate", "--family", "binary", "--height", "13", "--seed", "0"]) == 1

    def test_max_weight_past_64_bits_exits_at_once(self):
        # one draw covers at most 2**64 weights; a wider range used to loop
        # forever, so this runs in a child process that a timeout can stop
        result = subprocess.run(
            [sys.executable, "-m", "apportree", *self.ARGS, "--seed", "1", "--max-weight", str(10**20)],
            capture_output=True, text=True, timeout=30,
        )
        assert (result.returncode, result.stdout) == (1, "")
        assert result.stderr == "error: range [1, 100000000000000000000] holds more than 2**64 values\n"


class TestExperiment:
    FLAGS = [
        "experiment", "--family", "binary", "--height", "3",
        "--count", "3", "--house-sizes", "10", "--methods", "adams,ucquota",
    ]

    def test_csv_output(self, capsys):
        assert main(self.FLAGS) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("method,family,height,n,h,")
        assert len(lines) == 3
        assert lines[1].startswith("adams,binary,3,15,10,")

    def test_markdown_output(self, capsys):
        assert main(self.FLAGS + ["--out", "md"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("| method | family |")

    def test_config_file(self, tmp_path, capsys):
        cfg = {
            "family": {"kind": "binary", "height": 3},
            "instance_count": 3,
            "house_sizes": [10],
            "methods": ["adams", "ucquota"],
        }
        path = write(tmp_path, "cfg.json", json.dumps(cfg))
        main(self.FLAGS)
        from_flags = capsys.readouterr().out
        assert main(["experiment", "--config", path]) == 0
        assert capsys.readouterr().out == from_flags

    def test_config_with_experiment_flags_is_a_usage_error(self, tmp_path, capsys):
        # The file describes the whole experiment, so a flag that does
        # too would go unread: one error line names every such flag.
        cfg = {"family": {"kind": "binary", "height": 2}, "instance_count": 3,
               "house_sizes": [10], "methods": ["adams"]}
        path = write(tmp_path, "c.json", json.dumps(cfg))
        argv = ["experiment", "--config", path]
        extra = ["--count", "50", "--family", "4ary", "--height", "3", "--methods", "quota"]
        assert main(argv + extra) == 2
        assert capsys.readouterr() == (
            "", "error: --config cannot be combined with --family, --height, --count, --methods\n"
        )
        for flag, value in (("--base-seed", "1"), ("--house-sizes", "5"), ("--max-weight", "3"), ("--methods", "")):
            assert main(argv + [flag, value]) == 2
            assert capsys.readouterr() == ("", f"error: --config cannot be combined with {flag}\n")
        # the output format and the worker count stay free
        assert main(argv + ["--out", "md", "--workers", "1"]) == 0
        assert capsys.readouterr().out.startswith("| method | family |")

    def test_requires_config_or_family(self, capsys):
        assert main(["experiment"]) == 2

    def test_flags_left_out_take_the_config_defaults(self, capsys):
        assert main(["experiment", "--family", "binary", "--height", "1"]) == 0
        config = ExperimentConfig(TreeFamily(TreeKind.PERFECT_BINARY, 1))
        assert capsys.readouterr() == (emit_table(run_experiment(config)), "")

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--house-sizes", "1e3", "argument --house-sizes: not a comma-separated list of integers: '1e3'"),
            ("--house-sizes", "10,", "argument --house-sizes: not a comma-separated list of integers: '10,'"),
            ("--methods", "adams,bogus",
             "argument --methods: not a comma-separated list of method names: 'adams,bogus'"),
        ],
    )
    def test_flags_that_do_not_parse_are_usage_errors(self, capsys, flag, value, message):
        assert main(["experiment", "--family", "binary", "--height", "2", flag, value]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("usage: apportree ")
        assert err.endswith(f"apportree experiment: error: {message}\n")

    @pytest.mark.parametrize(
        "sizes, message",
        [("0", "house sizes must be at least 1"), ("10,-1", "house size must be a non-negative integer")],
    )
    def test_house_sizes_out_of_range_are_domain_errors(self, capsys, sizes, message):
        assert main(["experiment", "--family", "binary", "--height", "2", "--house-sizes", sizes]) == 1
        assert capsys.readouterr() == ("", f"error: {message}\n")

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_workers_below_one_are_domain_errors(self, capsys, workers):
        assert main(self.FLAGS + ["--workers", workers]) == 1
        message = f"error: workers must be an integer of at least 1, got {workers}\n"
        assert capsys.readouterr() == ("", message)

    def test_empty_lists(self, capsys):
        # no methods stand for every method; no house sizes give no rows,
        # as in a config
        flags = ["experiment", "--family", "binary", "--height", "2", "--count", "2", "--house-sizes", "10"]
        assert main(flags + ["--methods", ""]) == 0
        empty = capsys.readouterr().out
        assert main(flags) == 0
        assert capsys.readouterr().out == empty
        assert main(flags[:-1] + [""]) == 0
        assert capsys.readouterr().out == empty.splitlines(keepends=True)[0]

    def test_parallel_bytes_match_serial(self, capsys):
        main(self.FLAGS)
        serial = capsys.readouterr().out
        assert main(self.FLAGS + ["--workers", "2"]) == 0
        assert capsys.readouterr().out == serial

    @pytest.mark.parametrize("methods", [["ucquota"], ["adams", "ucquota"]])
    def test_uc_quota_over_budget_exits_at_once(self, tmp_path, capsys, methods):
        cfg = {"family": {"kind": "binary", "height": 3}, "house_sizes": [1000000000], "methods": methods}
        path = write(tmp_path, "cfg.json", json.dumps(cfg))
        start = perf_counter()
        assert main(["experiment", "--config", path]) == 1
        assert perf_counter() - start < 5
        assert capsys.readouterr() == (
            "",
            "error: ucquota at h=1000000000 may take 3000000000 steps, over the budget of 8000000\n",
        )

    def test_uc_quota_budget_reads_the_largest_house(self, capsys, monkeypatch):
        # binary height 3: a largest house of 10 is 30 steps
        monkeypatch.setattr(cli, "_WORK_BUDGET", 29)
        assert main(self.FLAGS) == 1
        assert main(self.FLAGS[:-1] + ["adams"]) == 0
        monkeypatch.setattr(cli, "_WORK_BUDGET", 30)
        assert main(self.FLAGS[:7] + ["--house-sizes", "1,10"] + self.FLAGS[9:]) == 0

    def test_quota_over_budget_exits_at_once(self, tmp_path, capsys):
        # 4-ary height 5, weights up to 10**6: each of the five depths may
        # hand out h seats one by one, each 2 steps on a heap of four
        cfg = {
            "family": {"kind": "4ary", "height": 5}, "house_sizes": [10, 1000000],
            "methods": ["adams", "quota"], "max_weight": 1000000,
        }
        path = write(tmp_path, "cfg.json", json.dumps(cfg))
        start = perf_counter()
        assert main(["experiment", "--config", path]) == 1
        assert perf_counter() - start < 5
        assert capsys.readouterr() == (
            "",
            "error: quota at h=1000000 may take 10000000 steps, over the budget of 8000000\n",
        )

    def test_quota_budget_bounds_d_by_the_largest_draw(self, capsys, monkeypatch):
        # 4-ary height 2 has one 4-child node at depth 0 and two at depth 1;
        # with draws up to 10, D <= 40, and a seat takes 2 steps:
        # min(2 * 39, 2 * h) + min(2 * 2 * 39, 2 * h)
        flags = [
            "experiment", "--family", "4ary", "--height", "2", "--count", "2",
            "--house-sizes", "1,10", "--methods", "quota",
        ]
        monkeypatch.setattr(cli, "_WORK_BUDGET", 39)
        assert main(flags) == 1
        assert capsys.readouterr().err.startswith("error: quota at h=10 may take 40 steps")
        monkeypatch.setattr(cli, "_WORK_BUDGET", 40)
        assert main(flags) == 0
        monkeypatch.setattr(cli, "_WORK_BUDGET", 233)
        assert main(flags[:7] + ["--house-sizes", "1000"] + flags[9:]) == 1
        monkeypatch.setattr(cli, "_WORK_BUDGET", 234)
        assert main(flags[:7] + ["--house-sizes", "1000"] + flags[9:]) == 0
        # Adams and Jefferson hand out at most b = 4 seats one by one at
        # each of the three nodes, 2 * 4 + 2 * 2 * 4 steps
        monkeypatch.setattr(cli, "_WORK_BUDGET", 23)
        assert main(flags[:-1] + ["adams,jefferson"]) == 1
        monkeypatch.setattr(cli, "_WORK_BUDGET", 24)
        assert main(flags[:-1] + ["adams,jefferson"]) == 0
        # binary families cost the quota method nothing
        monkeypatch.setattr(cli, "_WORK_BUDGET", 0)
        assert main(flags[:2] + ["binary"] + flags[3:]) == 0

    def test_uc_quota_budget_marks_pairs_by_the_largest_draw(self, capsys):
        # With draws up to 10**6, D <= 2 * 10**6 at each binary node, so
        # the bound on the children's caps denominator passes 2**60 from
        # depth 2 down: 1 + 1 + 2 + 2 + 2 = 8 steps a seat on binary
        # height 5 (the family bound of methods._splits is tested in test_methods).
        flags = [
            "experiment", "--family", "binary", "--height", "5", "--max-weight", "1000000",
            "--methods", "ucquota", "--house-sizes",
        ]
        assert main(flags + ["1000001"]) == 1
        assert capsys.readouterr() == (
            "",
            "error: ucquota at h=1000001 may take 8000008 steps, over the budget of 8000000\n",
        )

    def test_max_weight_past_64_bits_exits_at_once(self, tmp_path):
        # as for generate, in a child process that a timeout can stop
        cfg = {"family": {"kind": "binary", "height": 1}, "house_sizes": [10], "max_weight": 10**20}
        path = write(tmp_path, "cfg.json", json.dumps(cfg))
        result = subprocess.run(
            [sys.executable, "-m", "apportree", "experiment", "--config", path],
            capture_output=True, text=True, timeout=30,
        )
        assert (result.returncode, result.stdout) == (1, "")
        assert result.stderr == "error: range [1, 100000000000000000000] holds more than 2**64 values\n"

    def test_malformed_config(self, tmp_path, capsys):
        path = write(tmp_path, "cfg.json", "{]")
        assert main(["experiment", "--config", path]) == 1
        assert "invalid JSON" in capsys.readouterr().err


class TestOracle:
    def test_enumerates_matching_library_results(self, sym7_file, sym7, capsys):
        assert main(["oracle", sym7_file, "--seats", "6"]) == 0
        doc = json.loads(capsys.readouterr().out)
        expected = brute_force_both_quotas(sym7, 6)
        assert doc["count"] == len(expected)
        assert doc["allocations"] == [list(a.seats) for a in expected]
        assert all(seats[5] == seats[6] == 3 for seats in doc["allocations"])

    def test_size_limit_is_domain_error(self, sym7_file, capsys):
        assert main(["oracle", sym7_file, "--seats", "11"]) == 1
        assert "exceeds" in capsys.readouterr().err

    def test_negative_seats_is_domain_error(self, sym7_file, capsys):
        assert main(["oracle", sym7_file, "--seats", "-1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: house size must be a non-negative integer\n"

    def test_chain_deeper_than_the_recursion_limit(self, tmp_path, capsys):
        nodes = [{"id": i, "parent": i - 1 if i else None, "weight": "1"} for i in range(800)]
        path = write(tmp_path, "chain.json", json.dumps({"nodes": nodes}))
        assert main(["oracle", path, "--seats", "2", "--max-nodes", "1000"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["count"] == 1
        assert doc["allocations"] == [[2] * 800]


class TestTopLevel:
    # Each argv ends in help or a usage error, or (the abbreviation) runs.
    CORPUS = {
        "none": [],
        "help": ["-h"],
        "unknown-command": ["frobnicate"],
        **{
            f"{name}-help": [name, "-h"]
            for name in ("validate", "allocate", "check", "reduce", "generate", "experiment", "oracle")
        },
        "missing-argument": ["allocate", "{inst}", "--method", "adams"],
        "bad-choice": ["allocate", "{inst}", "--method", "webster", "--seats", "3"],
        "abbreviated-option": ["allocate", "{inst}", "--meth", "adams", "--seats", "3"],
        "ambiguous-option": ["experiment", "--m", "3"],
        "extra-positional": ["validate", "a", "b"],
        "unknown-option": ["allocate", "t.json", "--method", "adams", "--seats", "3", "--bogus"],
        "bad-house-sizes": ["experiment", "--family", "binary", "--height", "2", "--house-sizes", "1e3"],
        "bad-methods": ["experiment", "--family", "binary", "--height", "2", "--methods", "adams,bogus"],
    }

    @pytest.mark.parametrize("case", sorted(CORPUS))
    def test_prints_what_the_full_parser_prints(self, case, sym7_file, capsys):
        argv = [a.format(inst=sym7_file) for a in self.CORPUS[case]]
        code = main(argv)
        printed = capsys.readouterr()
        try:
            args = cli.build_parser().parse_args(argv)
        except SystemExit as exc:
            expected = exc.code
        else:
            expected = args.func(args)
        assert (code, printed) == (expected, capsys.readouterr())

    def test_no_command_is_usage_error(self, capsys):
        assert main([]) == 2

    def test_unknown_command_is_usage_error(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_calls_in_a_row_print_what_separate_runs_print(self, sym7_file, tmp_path, capsys):
        # main may run many times in one process; no run may see another's options
        alloc = write(tmp_path, "bad.json", allocation_to_json(Allocation(6, (6, 2, 2, 1, 1, 4, 2))))
        runs = [
            ["check", sym7_file, alloc, "--strict"],
            ["check", sym7_file, alloc, "--mode", "root"],
            ["allocate", sym7_file, "--method", "webster", "--seats", "3"],
            ["allocate", sym7_file, "--method", "adams", "--seats", "3", "--trajectory"],
            ["validate", sym7_file],
        ]
        for argv in runs:
            code = main(argv)
            out, err = capsys.readouterr()
            separate = subprocess.run(
                [sys.executable, "-m", "apportree", *argv], capture_output=True, text=True
            )
            assert (code, out, err) == (separate.returncode, separate.stdout, separate.stderr)

    def test_module_entry_point(self, sym7_file):
        result = subprocess.run(
            [sys.executable, "-m", "apportree", "validate", sym7_file],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0
        assert result.stdout.strip() == "valid: 7 nodes"

    def test_a_closed_pipe_exits_1_quietly(self, sym7_file):
        # `allocate ... --trajectory | head -c 100`: the reader leaves while
        # the 2 MB of output is still being written
        argv = ["allocate", sym7_file, "--method", "jefferson", "--seats", "100000", "--trajectory"]
        proc = subprocess.Popen(
            [sys.executable, "-m", "apportree", *argv], stdout=subprocess.PIPE, stderr=subprocess.PIPE
        )
        assert len(proc.stdout.read(100)) == 100
        proc.stdout.close()
        assert proc.wait(timeout=120) == 1
        assert proc.stderr.read() == b""
        proc.stderr.close()

    def test_a_closed_pipe_leaves_a_redirected_stdout_alone(self, sym7_file, monkeypatch):
        class Closed(io.StringIO):
            def write(self, text):
                raise BrokenPipeError

        closed = Closed()
        monkeypatch.setattr(sys, "stdout", closed)
        dups = []
        monkeypatch.setattr(cli.os, "dup2", lambda *args: dups.append(args))
        assert main(["allocate", sym7_file, "--method", "jefferson", "--seats", "3"]) == 1
        assert sys.stdout is closed and dups == []


class TestCollectorPause:
    """main pauses the cyclic collector for the command only; the library never touches it."""

    @pytest.fixture(params=[True, False], ids=["on", "off"])
    def collector(self, request):
        was = gc.isenabled()
        (gc.enable if request.param else gc.disable)()
        yield request.param
        (gc.enable if was else gc.disable)()

    CASES = {
        "ok": (["allocate", "{inst}", "--method", "both-quotas", "--seats", "5"], 0),
        "domain-error": (["allocate", "{inst}", "--method", "both-quotas", "--seats", "-1"], 1),
        "invalid-instance": (["allocate", "{bad}", "--method", "both-quotas", "--seats", "3"], 1),
        "usage-error": (["allocate", "{inst}", "--method", "webster", "--seats", "3"], 2),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_leaves_the_collector_as_found(self, case, collector, sym7_file, tmp_path, capsys, monkeypatch):
        bad = write(tmp_path, "bad.json", json.dumps(nodes((0, None, "1"), (1, 0, "1/2"))))
        seen = []
        original = cli.allocate_both_quotas
        monkeypatch.setattr(
            cli, "allocate_both_quotas", lambda *args: seen.append(gc.isenabled()) or original(*args)
        )
        argv, code = self.CASES[case]
        assert main([a.format(inst=sym7_file, bad=bad) for a in argv]) == code
        assert gc.isenabled() is collector
        assert seen == ([False] if case in ("ok", "domain-error") else [])

    def test_a_closed_pipe_leaves_the_collector_as_found(self, collector, sym7_file, monkeypatch):
        class Closed(io.StringIO):
            def write(self, text):
                raise BrokenPipeError

        monkeypatch.setattr(sys, "stdout", Closed())
        assert main(["allocate", sym7_file, "--method", "jefferson", "--seats", "3"]) == 1
        assert gc.isenabled() is collector

    def test_an_unexpected_error_leaves_the_collector_as_found(self, collector, sym7_file, monkeypatch):
        def fail(*args):
            raise ZeroDivisionError

        monkeypatch.setattr(cli, "allocate_both_quotas", fail)
        with pytest.raises(ZeroDivisionError):
            main(["allocate", sym7_file, "--method", "both-quotas", "--seats", "3"])
        assert gc.isenabled() is collector

    def test_only_main_pauses_the_collector(self, sym7, sym7_file, monkeypatch, capsys):
        calls = []
        monkeypatch.setattr(gc, "disable", lambda: calls.append("disable"))
        monkeypatch.setattr(gc, "enable", lambda: calls.append("enable"))
        inst = instance_from_json(instance_to_json(sym7))
        check_allocation(inst, allocate_both_quotas(inst, 100))
        run_experiment(ExperimentConfig(TreeFamily(TreeKind.PERFECT_BINARY, 2), instance_count=3))
        assert calls == []
        main(["validate", sym7_file])
        assert calls == (["disable", "enable"] if gc.isenabled() else ["disable"])

    REPEATED = {
        "validate": ["validate", "{inst}"],
        "allocate-both-quotas": ["allocate", "{inst}", "--method", "both-quotas", "--seats", "100"],
        "allocate-jefferson": ["allocate", "{inst}", "--method", "jefferson", "--seats", "100"],
        "check-strict": ["check", "{inst}", "{alloc}", "--strict"],
        "oracle": ["oracle", "{inst}", "--seats", "6"],
        "experiment": ["experiment", "--family", "binary", "--height", "2", "--count", "5", "--workers", "1"],
        "generate": ["generate", "--family", "4ary", "--height", "4", "--seed", "1"],
        "reduce": ["reduce", "{inst}"],
    }

    @pytest.mark.parametrize("case", sorted(REPEATED))
    def test_a_repeated_command_leaves_no_cyclic_garbage(self, case, sym7, sym7_file, tmp_path, capsys):
        # the first call may build what later calls share (the parser among them)
        alloc = write(tmp_path, "alloc.json", allocation_to_json(allocate_both_quotas(sym7, 100)))
        argv = [a.format(inst=sym7_file, alloc=alloc) for a in self.REPEATED[case]]
        was = gc.isenabled()
        gc.disable()
        try:
            assert main(argv) == 0
            gc.collect()
            assert main(argv) == 0
            assert gc.collect() == 0
        finally:
            if was:
                gc.enable()


class TestInputFiles:
    """Every file argument reports a missing, undecodable or malformed file alike."""

    COMMANDS = {
        "validate": ["validate", "{bad}"],
        "allocate": ["allocate", "{bad}", "--method", "adams", "--seats", "3"],
        "check-instance": ["check", "{bad}", "{alloc}"],
        "check-allocation": ["check", "{inst}", "{bad}"],
        "reduce": ["reduce", "{bad}"],
        "oracle": ["oracle", "{bad}", "--seats", "3"],
        "experiment": ["experiment", "--config", "{bad}"],
    }

    @pytest.mark.parametrize("problem", ["missing", "malformed", "not-utf8"])
    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_exit_1_with_one_error_line(self, command, problem, sym7_file, tmp_path, capsys):
        alloc = write(tmp_path, "alloc.json", '{"h": 6, "seats": [6, 1, 2, 1, 2, 3, 3]}')
        if problem == "missing":
            bad = str(tmp_path / "nope.json")
            expected = f"error: cannot read {bad}: No such file or directory\n"
        elif problem == "malformed":
            bad = write(tmp_path, "broken.json", "{")
            expected = (
                f"error: {bad}: invalid JSON at line 1, column 2: "
                "Expecting property name enclosed in double quotes\n"
            )
        else:
            bad = str(tmp_path / "utf16.json")
            (tmp_path / "utf16.json").write_bytes(b"\xff\xfe{")
            expected = f"error: {bad}: not UTF-8 (invalid start byte at byte 0)\n"
        argv = [a.format(bad=bad, inst=sym7_file, alloc=alloc) for a in self.COMMANDS[command]]
        assert main(argv) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == expected

    # JSON that json.loads refuses past its limits, not for its syntax
    UNDECODABLE = {
        "nested-too-deep": ("[" * 10**5, "recursion"),
        "integer-too-long": ('{"nodes": [{"id": ' + "9" * 5000 + "}]}", "4300 digits"),
    }

    @pytest.mark.parametrize("problem", sorted(UNDECODABLE))
    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_undecodable_json_names_the_file(self, command, problem, sym7_file, tmp_path, capsys):
        if problem == "integer-too-long" and not hasattr(sys, "set_int_max_str_digits"):
            pytest.skip("this Python decodes integers of any length")
        text, reason = self.UNDECODABLE[problem]
        alloc = write(tmp_path, "alloc.json", '{"h": 6, "seats": [6, 1, 2, 1, 2, 3, 3]}')
        bad = write(tmp_path, "undecodable.json", text)
        argv = [a.format(bad=bad, inst=sym7_file, alloc=alloc) for a in self.COMMANDS[command]]
        assert main(argv) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"error: {bad}: cannot decode JSON: ") and reason in err
        assert err.count("\n") == 1 and err.endswith("\n")

    @pytest.mark.parametrize(
        "argv, text, expected",
        [
            (["check", "{inst}", "{bad}"], '{"h": -1, "seats": []}', '"h" must be a non-negative integer'),
            (["experiment", "--config", "{bad}"], '{"family": 3}', 'config must be an object with a "family" object'),
        ],
        ids=["allocation", "config"],
    )
    def test_parse_errors_keep_their_text(self, argv, text, expected, sym7_file, tmp_path, capsys):
        bad = write(tmp_path, "bad.json", text)
        assert main([a.format(bad=bad, inst=sym7_file) for a in argv]) == 1
        assert capsys.readouterr() == ("", f"error: {expected}\n")


def nodes(*entries) -> dict:
    """An instance document from ``(id, parent, weight)`` triples."""
    return {"nodes": [{"id": i, "parent": p, "weight": w} for i, p, w in entries]}


class TestHostileDocuments:
    """Broken instance documents and the exact error lines they give.

    ``validate`` prints the lines on stdout, ``allocate`` on stderr; both
    exit 1.  The lines are frozen: kind, node, message and order.
    """

    CASES = {
        "not-a-dict": (
            [[0, None, "1"], [1, 0, "1"]],
            'NonTree: document must be {"nodes": [...]}\n',
        ),
        "no-nodes-key": ({"node": []}, 'NonTree: document must be {"nodes": [...]}\n'),
        "empty-nodes": ({"nodes": []}, "NonTree: empty node list\n"),
        "entry-not-object": (
            {"nodes": [{"id": 0, "parent": None, "weight": "1"}, 5, {"id": 1, "parent": 0, "weight": "1"}]},
            "NonTree: node entry #1 is not an object\nNonTree: ids are not dense 0..2 (2 distinct)\n",
        ),
        "bool-id": (
            {"nodes": [{"id": 0, "parent": None, "weight": "1"}, {"id": True, "parent": 0, "weight": "1"}]},
            "NonTree: node entry #1 has bad id True (ids must be dense 0..1)\n"
            "NonTree: ids are not dense 0..1 (1 distinct)\n",
        ),
        "duplicate-id": (
            nodes((0, None, "1"), (1, 0, "1/2"), (1, 0, "1/2")),
            "NonTree (node 1): duplicate node id\nNonTree: ids are not dense 0..2 (2 distinct)\n",
        ),
        "sparse-ids": (
            nodes((0, None, "1"), (1, 0, "1/2"), (5, 0, "1/2")),
            "NonTree: node entry #2 has bad id 5 (ids must be dense 0..2)\n"
            "NonTree: ids are not dense 0..2 (2 distinct)\n",
        ),
        "bool-parent": (
            nodes((0, None, "1"), (1, True, "1/2"), (2, 0, "1/2")),
            "NonTree (node 1): bad parent True\n",
        ),
        "string-parent": (
            nodes((0, None, "1"), (1, "0", "1/2"), (2, 0, "1/2")),
            "NonTree (node 1): bad parent '0'\n",
        ),
        "self-parent": (
            nodes((0, None, "1"), (1, 1, "1/2"), (2, 0, "1/2")),
            "NonTree (node 1): node is its own parent\n"
            "ChildrenWeightsNotNormalized (node 0): children weights sum to 1/2\n"
            "ChildrenWeightsNotNormalized (node 1): children weights sum to 1/2\n",
        ),
        "root-with-parent": (
            nodes((0, 1, "1"), (1, 0, "1")),
            "NonTree (node 0): root must have no parent\nNonTree (node 1): invalid child id 0\n",
        ),
        "parent-out-of-range": (
            nodes((0, None, "1"), (1, 3, "1/2"), (2, 0, "1/2")),
            "NonTree (node 1): parent id 3 out of range\n"
            "NonTree (node 1): node missing from its parent's child list\n"
            "ChildrenWeightsNotNormalized (node 0): children weights sum to 1/2\n",
        ),
        "negative-parent": (
            nodes((0, None, "1"), (1, -1, "1/2"), (2, 0, "1/2")),
            "NonTree (node 1): parent id -1 out of range\n"
            "NonTree (node 1): node missing from its parent's child list\n"
            "ChildrenWeightsNotNormalized (node 0): children weights sum to 1/2\n",
        ),
        "missing-parent": (
            nodes((0, None, "1"), (1, None, "1/2"), (2, 0, "1/2")),
            "NonTree (node 1): non-root node without a parent\n"
            "ChildrenWeightsNotNormalized (node 0): children weights sum to 1/2\n",
        ),
        # unhashable weights must be refused before any lookup by weight string
        "list-weight": (
            nodes((0, None, "1"), (1, 0, [1, 2]), (2, 0, "1/2")),
            'WeightOutOfRange (node 1): weight must be a "p" or "p/q" string\n',
        ),
        "dict-weight": (
            nodes((0, None, "1"), (1, 0, {"p": 1}), (2, 0, "1/2")),
            'WeightOutOfRange (node 1): weight must be a "p" or "p/q" string\n',
        ),
        "int-weight": (
            nodes((0, None, "1"), (1, 0, 1)),
            'WeightOutOfRange (node 1): weight must be a "p" or "p/q" string\n',
        ),
        "decimal-weight": (
            nodes((0, None, "1"), (1, 0, "1.0")),
            "WeightOutOfRange (node 1): not a rational 'p' or 'p/q' string: '1.0'\n",
        ),
        "non-ascii-digits": (
            nodes((0, None, "1"), (1, 0, "١/٢"), (2, 0, "1/2")),
            "WeightOutOfRange (node 1): not a rational 'p' or 'p/q' string: '١/٢'\n",
        ),
        "zero-denominator": (
            nodes((0, None, "1"), (1, 0, "1/0"), (2, 0, "1/2")),
            "WeightOutOfRange (node 1): zero denominator in weight: '1/0'\n",
        ),
        "weight-above-one": (
            nodes((0, None, "1"), (1, 0, "3/2"), (2, 0, "1/2")),
            "WeightOutOfRange (node 1): weight 3/2 not in (0, 1]\n"
            "ChildrenWeightsNotNormalized (node 0): children weights sum to 2\n",
        ),
        "zero-weight": (
            nodes((0, None, "1"), (1, 0, "0"), (2, 0, "1")),
            "WeightOutOfRange (node 1): weight 0 not in (0, 1]\n",
        ),
        "root-weight-half": (
            nodes((0, None, "1/2"), (1, 0, "1")),
            "WeightOutOfRange (node 0): root weight must be 1, got 1/2\n",
        ),
        "siblings-sum-5/6": (
            nodes((0, None, "1"), (1, 0, "1/2"), (2, 0, "1/3")),
            "ChildrenWeightsNotNormalized (node 0): children weights sum to 5/6\n",
        ),
        "two-node-cycle": (
            nodes((0, None, "1"), (1, 0, "1"), (2, 3, "1"), (3, 2, "1")),
            "NonTree (node 2): node does not reach the root (cycle)\n"
            "NonTree (node 3): node does not reach the root (cycle)\n",
        ),
        "many-errors": (
            nodes((0, 2, "1/2"), (1, 1, "2"), (2, 0, "1/3"), (3, 0, "1/3"), (4, 9, "1")),
            "NonTree (node 0): root must have no parent\n"
            "NonTree (node 1): node is its own parent\n"
            "NonTree (node 4): parent id 9 out of range\n"
            "NonTree (node 2): invalid child id 0\n"
            "NonTree (node 4): node missing from its parent's child list\n"
            "WeightOutOfRange (node 0): root weight must be 1, got 1/2\n"
            "WeightOutOfRange (node 1): weight 2 not in (0, 1]\n"
            "ChildrenWeightsNotNormalized (node 0): children weights sum to 2/3\n"
            "ChildrenWeightsNotNormalized (node 1): children weights sum to 2\n",
        ),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_error_lines_are_frozen(self, case, tmp_path, capsys):
        doc, expected = self.CASES[case]
        path = write(tmp_path, "bad.json", json.dumps(doc))
        assert main(["validate", path]) == 1
        assert capsys.readouterr() == (expected, "")
        assert main(["allocate", path, "--method", "adams", "--seats", "3"]) == 1
        assert capsys.readouterr() == ("", expected)

    def test_over_long_sibling_sum_gives_one_line(self, tmp_path, capsys):
        # 2000 children weighing 1/p over the first 2000 primes p: the
        # sum's denominator is their product, of over 7000 digits
        if not hasattr(sys, "set_int_max_str_digits"):
            pytest.skip("this Python prints integers of any length")
        primes = [p for p in range(2, 17390) if all(p % q for q in range(2, math.isqrt(p) + 1))]
        assert len(primes) == 2000
        doc = nodes((0, None, "1"), *((k, 0, f"1/{p}") for k, p in enumerate(primes, 1)))
        path = write(tmp_path, "star.json", json.dumps(doc))
        bits = math.prod(primes).bit_length()
        expected = (
            "ChildrenWeightsNotNormalized (node 0): children weights do not sum to 1: "
            f"their sum has a {bits}-bit denominator\n"
        )
        assert main(["validate", path]) == 1
        assert capsys.readouterr() == (expected, "")
        assert main(["allocate", path, "--method", "adams", "--seats", "3"]) == 1
        assert capsys.readouterr() == ("", expected)

    def test_over_long_weight_gives_one_line(self, tmp_path, capsys):
        if not hasattr(sys, "set_int_max_str_digits"):
            pytest.skip("this Python parses integers of any length")
        digits = "1" * 5000
        path = write(tmp_path, "bad.json", json.dumps(nodes((0, None, "1"), (1, 0, f"{digits}/{digits}"))))
        message = f"weight has a number of over {sys.get_int_max_str_digits()} digits"
        assert main(["validate", path]) == 1
        assert capsys.readouterr() == (f"WeightOutOfRange (node 1): {message}\n", "")
        with pytest.raises(ValueError) as exc:
            Instance([None, 0], ["1", digits])
        assert str(exc.value) == message


class TestHostileSizes:
    """Deep and wide inputs far past the benchmark's sizes.

    Nothing is timed: each step is linear in the input, so these finish in
    seconds, where a step quadratic in depth or fan-out would take minutes.
    """

    def allocate_and_check(self, tmp_path, capsys, nodes, seats: int) -> str:
        path = write(tmp_path, "big.json", json.dumps({"nodes": nodes}))
        assert main(["allocate", path, "--method", "both-quotas", "--seats", str(seats)]) == 0
        alloc = write(tmp_path, "big.alloc.json", capsys.readouterr().out)
        assert main(["check", path, alloc, "--strict"]) == 0
        assert capsys.readouterr().out.startswith("ok:")
        return path

    def test_chain_of_100000_nodes(self, tmp_path, capsys):
        nodes = [{"id": i, "parent": i - 1 if i else None, "weight": "1"} for i in range(10**5)]
        self.allocate_and_check(tmp_path, capsys, nodes, 1000)

    @staticmethod
    def star(b: int) -> tuple[list[int], list[dict]]:
        """The raw weights of a star of ``b`` leaves, and its nodes."""
        raw = [1 + k * 7919 % 1000 for k in range(b)]
        total = sum(raw)
        nodes = [{"id": 0, "parent": None, "weight": "1"}] + [
            {"id": k + 1, "parent": 0, "weight": str(Fraction(r, total))} for k, r in enumerate(raw)
        ]
        return raw, nodes

    def test_star_of_10000_leaves(self, tmp_path, capsys):
        b = 10**4
        path = self.allocate_and_check(tmp_path, capsys, self.star(b)[1], 12345)
        assert main(["reduce", path]) == 0
        out = json.loads(capsys.readouterr().out)
        assert len(out["nodes"]) == 2 * b - 1
        assert out["node_map"] == list(range(b + 1))
        assert out["introduced"] == list(range(b + 1, 2 * b - 1))

    @pytest.mark.parametrize("method", ["adams", "jefferson"])
    def test_star_of_100000_leaves(self, tmp_path, capsys, method):
        # up to b seats are handed out one by one at the root, each a heap
        # step, not a scan of all b children
        raw, nodes = self.star(10**5)
        path = write(tmp_path, "star.json", json.dumps({"nodes": nodes}))
        h = 10**6 + 3
        assert main(["allocate", path, "--method", method, "--seats", str(h)]) == 0
        seats = json.loads(capsys.readouterr().out)["seats"]
        assert seats[0] == sum(seats[1:]) == h
        # Adams meets upper quota and Jefferson lower quota
        total = sum(raw)
        if method == "adams":
            assert all(s <= -(-h * r // total) for s, r in zip(seats[1:], raw))
        else:
            assert all(s >= h * r // total for s, r in zip(seats[1:], raw))
