"""Spans and exact counts around calls into each apportree module.

The traced run wraps the public functions named in :data:`SPANNED` at
every place the package binds them (the defining module and every module
that imported the name), so a real op runs unchanged but each call into a
layer, including calls one layer makes into another, opens a span.  Inner
calls are therefore timed directly as child spans: ``validate_instance``
inside ``run_method`` or ``to_full_binary`` is measured on the same input
in the same call, not estimated.

Spans stay in memory as ``(name, start, end, parent, op, tag)`` and are
written to a side file when the run ends.  A span's self time is its
duration minus its direct children's.  Counts are taken at the same
boundaries and depend only on the inputs, so they repeat exactly for a
given seed and schedule.
"""

from __future__ import annotations

import json
import os
import sys
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

SPANNED = {
    "generator": ("build_tree", "assign_entitlements"),
    "core": (
        "validate_instance",
        "relative_entitlements",
        "instance_from_json",
        "check_allocation",
        "count_violations",
    ),
    "methods": ("run_method",),
    "existence": ("to_full_binary", "allocate_both_quotas"),
    "experiments": ("run_experiment", "evaluate_instance"),
    "cli": ("main",),
}
METHODS = ("adams", "jefferson", "quota", "ucquota")
SETUP_OP = -1


class Tracer:
    """Span and count recorder for one traced run of one workload."""

    def __init__(self, ap):
        self.ap = ap
        self.spans: list[tuple] = []
        self._stack: list[int] = []
        self.op = SETUP_OP
        self.counts: dict[str, int] = defaultdict(int)
        # instances validated in the current op, held so ids stay unique
        self._validated: dict[int, object] = {}

    def begin_op(self, op: int) -> None:
        """Start op ``op``; instances validated so far count as one op's."""
        self.counts["validated_instances"] += len(self._validated)
        self._validated.clear()
        self.op = op

    def end(self) -> None:
        """Close the last op."""
        self.begin_op(SETUP_OP)

    @contextmanager
    def installed(self):
        """Route every bound reference to a spanned function through a span."""
        modules = [m for name, m in sys.modules.items() if name == "apportree" or name.startswith("apportree.")]
        patched = []
        for layer, names in SPANNED.items():
            home = getattr(self.ap, layer)
            for fname in names:
                original = getattr(home, fname, None)
                if original is None:  # removed by a refactor: its metrics read 0
                    continue
                wrapper = self._wrap(f"{layer}.{fname}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            patched.append((module, attr, original))
        try:
            yield self
        finally:
            for module, attr, original in patched:
                setattr(module, attr, original)

    def _wrap(self, name, fn):
        after = getattr(self, "_after_" + name.replace(".", "_"), None)
        before = getattr(self, "_before_" + name.replace(".", "_"), None)
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            token = before() if before else None
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, self.op, None)
            if after:
                spans[index] = (name, start, end, parent, self.op, after(args, result, token))
            return result

        return traced

    # Counts at the span boundaries.  An ``_after_`` hook runs once its span
    # has closed, and its return value becomes the span's tag.

    def _after_methods_run_method(self, args, traj, token):
        method = traj.method.value
        self.counts[f"seats.{method}"] += traj.final.h
        self.counts["node_visits"] += sum(map(len, traj.paths))
        return method

    def _after_core_validate_instance(self, args, errors, token):
        self.counts["validate_calls"] += 1
        self._validated[id(args[0])] = args[0]

    def _after_existence_to_full_binary(self, args, reduction, token):
        self.counts["introduced_nodes"] += len(reduction.introduced)

    def _after_experiments_evaluate_instance(self, args, metrics, token):
        bits = max(metrics.deviation_sum.denominator.bit_length(), metrics.deviation_max.denominator.bit_length())
        self.counts["deviation_den_bits_max"] = max(self.counts["deviation_den_bits_max"], bits)

    def _before_cli_main(self):
        # ops call cli.main with stdout redirected to a StringIO
        return sys.stdout.tell()

    def _after_cli_main(self, args, code, start):
        argv = args[0] if args else []
        self.counts["cli_bytes_in"] += sum(os.path.getsize(a) for a in argv if a.endswith(".json"))
        self.counts["cli_bytes_out"] += sys.stdout.tell() - start

    def self_times(self) -> dict[tuple[str, str | None], float]:
        """Total self time per (span name, tag)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, op, tag in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals: dict[tuple[str, str | None], float] = defaultdict(float)
        for index, (name, start, end, parent, op, tag) in enumerate(self.spans):
            totals[(name, tag)] += end - start - child[index]
        return totals

    def write(self, path, meta: dict) -> None:
        """Write a header line, then one JSON array per span."""
        with open(path, "w", encoding="utf-8") as f:
            f.write(json.dumps({**meta, "fields": ["name", "start", "end", "parent", "op", "tag"]}) + "\n")
            for span in self.spans:
                f.write(json.dumps(span) + "\n")


def layer_metrics(tracer: Tracer, ops: int, setup: Tracer) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of a traced phase of ``ops`` ops, as (value, unit).

    Times and counts are per op, except ``generator.setup_s``, the
    generator's self time in the set-up that ``setup`` traced.
    """
    selfs = tracer.self_times()
    by_name: dict[str, float] = defaultdict(float)
    for (name, _), seconds in selfs.items():
        by_name[name] += seconds
    counts = tracer.counts
    out: dict[str, tuple[float, str]] = {}
    for layer, names in SPANNED.items():
        out[f"{layer}.self_s"] = (sum(by_name[f"{layer}.{f}"] for f in names) / ops, "s/op")
        for fname in names:
            out[f"{layer}.{fname}.self_s"] = (by_name[f"{layer}.{fname}"] / ops, "s/op")
    for method in METHODS:
        seats = counts[f"seats.{method}"]
        busy = selfs.get(("methods.run_method", method), 0.0)
        out[f"methods.us_per_seat.{method}"] = (busy * 1e6 / seats if seats else 0.0, "us/seat")
    out["methods.seats"] = (sum(counts[f"seats.{m}"] for m in METHODS) / ops, "seats/op")
    out["methods.node_visits"] = (counts["node_visits"] / ops, "visits/op")
    instances = counts["validated_instances"]
    out["core.validate_instance.calls_per_instance"] = (
        counts["validate_calls"] / instances if instances else 0.0,
        "calls/instance",
    )
    out["existence.introduced_nodes"] = (counts["introduced_nodes"] / ops, "nodes/op")
    out["experiments.deviation_den_bits_max"] = (counts["deviation_den_bits_max"], "bits")
    out["cli.bytes_in"] = (counts["cli_bytes_in"] / ops, "B/op")
    out["cli.bytes_out"] = (counts["cli_bytes_out"] / ops, "B/op")
    out["generator.setup_s"] = (
        sum(s for (name, _), s in setup.self_times().items() if name.startswith("generator.")),
        "s",
    )
    return out
