#!/usr/bin/env python3
"""The apportree benchmark: three workloads, end-to-end and per-layer metrics.

Run one workload from the root of a checkout:

    python3 bench/run.py --workload desk --seed 1 --seconds 30 --trace 0

The workloads (``desk``, ``big-house``, ``cli-audit``) are described in
``bench/workloads.py``.  The library is imported from ``src/`` of the
checkout; nothing is installed.  The last line of stdout is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.

With ``--trace 0`` the metrics are the end-to-end ones of BENCHMARK.json,
measured untraced: set-up time (the median of seven set-ups, each a cold
``import apportree`` in a child process plus building inputs, writing
instance files and one warm-up op per schedule slot), throughput and op
latency over ``--seconds`` of closed-loop ops, peak resident memory, and
the share of ops whose output passed its check.

Every end-to-end time is scaled to a reference host speed: a fixed probe
(``bench/hostspeed.py``) runs before each op and around each set-up, and
each time is multiplied by ``REFERENCE_S`` over the probe time measured
beside it.  The shared host's speed drifts by half or more between runs;
the scaled times do not.  ``ops_per_s`` is ops over their summed scaled
latencies, so the probes themselves are not counted.  The report lines
give the raw wall-clock figures and the probe's median as well.

With ``--trace 1`` the metrics are the per-layer ones.  For ``--seconds``
the run alternates an untraced and a traced pass over the schedule (see
``bench/tracing.py``); the ratio of their times is ``trace.overhead_ratio``.
Per-layer times are raw wall-clock, not scaled: compare shares within one
traced run, and counts across runs.  Spans go to ``.bench_out/trace-<workload>-<seed>.jsonl``.

Two modes help maintain the benchmark itself:

    python3 bench/run.py --self-test
        every workload at a tiny size in both trace modes; checks that each
        metric of BENCHMARK.json is reported with its unit.
    python3 bench/run.py --steady 10 [--workload W] [--seed S] [--seconds N]
        runs each workload N times in child processes with seeds S, S+1, ...
        and prints each end-to-end metric's median, quartiles and spread
        against its bound.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

from hostspeed import probe, probe_median, scale
from tracing import Tracer, layer_metrics
from workloads import CANARY_SEED, FROZEN, FULL, TINY, WORKLOADS, depth

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SPEC = ROOT / "BENCHMARK.json"
MODULES = ("core", "generator", "methods", "existence", "experiments", "cli")
SETUP_REPEATS = 7


def load_apportree() -> SimpleNamespace:
    sys.path.insert(0, str(SRC))
    return SimpleNamespace(**{m: importlib.import_module(f"apportree.{m}") for m in MODULES})


def import_seconds() -> tuple[float, float]:
    """Time a cold ``import apportree`` (and its CLI) in a fresh interpreter.

    Returns the raw time and the time scaled by probes the child runs
    right before and after the import, on the core it ran on.
    """
    code = (
        "import sys, time; sys.path[:0] = sys.argv[1:]; from hostspeed import probe_median, scale; "
        "a = probe_median(); t = time.perf_counter(); import apportree, apportree.cli; "
        "t = time.perf_counter() - t; print(t, scale(t, a, probe_median()))"
    )
    done = subprocess.run(
        [sys.executable, "-c", code, str(SRC), str(Path(__file__).resolve().parent)],
        capture_output=True, text=True, check=True, timeout=120,
    )
    raw, scaled = map(float, done.stdout.split())
    return raw, scaled


class OpLog:
    """Latency and ``(slot, output, error)`` of every op run, checked after the loop.

    An output equal to its slot's first output is kept as that first
    object, so memory does not grow with the number of ops.  A probed log
    runs the host-speed probe before every op, and once more on
    :meth:`close`, so that each op lies between two probes.
    """

    def __init__(self, probed: bool = False):
        self.latencies: list[float] = []
        self.outputs: list[tuple] = []
        self.probes: list[float] | None = [] if probed else None
        self._first: dict[int, object] = {}

    def run_pass(self, ops, tracer: Tracer | None = None) -> None:
        """Run every op of the schedule once."""
        for slot, op in enumerate(ops):
            if tracer:
                tracer.begin_op(len(self.outputs))
            if self.probes is not None:
                self.probes.append(probe())
            t0 = perf_counter()
            try:
                output, error = op(), None
            except Exception as exc:  # a failed op is counted, not fatal
                output, error = None, f"{type(exc).__name__}: {exc}"
            self.latencies.append(perf_counter() - t0)
            if error is None:
                first = self._first.setdefault(slot, output)
                if output == first:
                    output = first
            self.outputs.append((slot, output, error))
        if tracer:
            tracer.end()

    def close(self) -> None:
        """Probe after the last op."""
        self.probes.append(probe())

    def scaled_latencies(self) -> list[float]:
        """Each op's latency at reference host speed, from the probes either side of it."""
        p = self.probes
        return [scale(t, p[i], p[i + 1]) for i, t in enumerate(self.latencies)]


def check_outputs(workload, ap, state, sizes, outputs, expected=None) -> list[str]:
    """One message per op whose output is wrong.

    An output must match its slot's expected digest (by default, the first
    output of that slot) and pass the workload's check, which runs once per
    distinct output.
    """
    reference = dict(enumerate(expected or ()))
    digests: dict[int, str] = {}
    verdicts: dict[tuple[int, str], str | None] = {}
    failures = []
    for slot, output, error in outputs:
        if error is None:
            if id(output) not in digests:
                digests[id(output)] = workload.digest(output)
            d = digests[id(output)]
            want = reference.setdefault(slot, d)
            if d != want:
                error = f"output digest {d}, expected {want}"
            else:
                if (slot, d) not in verdicts:
                    try:
                        verdicts[(slot, d)] = workload.check(ap, state, slot, output, sizes)
                    except Exception as exc:  # a malformed output fails its check
                        verdicts[(slot, d)] = f"check raised {type(exc).__name__}: {exc}"
                error = verdicts[(slot, d)]
        if error:
            failures.append(f"{state.labels[slot]}: {error}")
    return failures


def canary(workload, ap, sizes, workdir: Path) -> tuple[int, list[str]]:
    """Run the schedule once at CANARY_SEED against the frozen digests."""
    state = workload.setup(ap, CANARY_SEED, sizes, workdir / "canary")
    log = OpLog()
    log.run_pass(state.ops)
    expected = FROZEN[sizes.name][workload.name]
    failures = check_outputs(workload, ap, state, sizes, log.outputs, expected)
    return len(log.outputs), [f"canary {f}" for f in failures]


def input_stats(ap, state) -> dict[str, int]:
    insts = state.inputs()
    return {
        "nodes_max": max(i.n for i in insts),
        "depth_max": max(depth(i) for i in insts),
        "share_den_bits_max": max(
            s.denominator.bit_length() for i in insts for s in ap.core.relative_entitlements(i)
        ),
    }


def run_workload(ap, workload, seed: int, seconds: float, trace: bool, sizes) -> tuple[dict, list[str]]:
    """Set up, measure and check one workload; returns the result and report lines."""
    workdir = OUT / f"{workload.name}-{os.getpid()}"
    lines = [f"workload {workload.name}, seed {seed}, {'traced' if trace else 'untraced'}, sizes {sizes.name}"]
    try:
        if trace:
            setup_tracer = Tracer(ap)
            with setup_tracer.installed():
                state = workload.setup(ap, seed, sizes, workdir)
            OpLog().run_pass(state.ops)  # warm-up
            # Untraced and traced passes alternate, so that drift in machine
            # speed falls on both sides of trace.overhead_ratio alike.
            tracer = Tracer(ap)
            plain, traced, plain_s, traced_s = OpLog(), OpLog(), 0.0, 0.0
            deadline = perf_counter() + seconds
            while perf_counter() < deadline:
                t0 = perf_counter()
                plain.run_pass(state.ops)
                plain_s += perf_counter() - t0
                with tracer.installed():
                    t0 = perf_counter()
                    traced.run_pass(state.ops, tracer)
                    traced_s += perf_counter() - t0
            outputs = plain.outputs + traced.outputs
            ops = len(traced.outputs)
            metrics = layer_metrics(tracer, ops, setup_tracer)
            metrics["trace.overhead_ratio"] = (traced_s / plain_s, "ratio")
            lines.append(f"ops: {len(plain.outputs)} untraced in {plain_s:.2f} s, {ops} traced in {traced_s:.2f} s")
            lines.append("note: calls one layer makes into another (validate_instance inside run_method and "
                         "to_full_binary) are timed directly as child spans and excluded from the caller's self time")
        else:
            setups, raw_setups = [], []
            for _ in range(SETUP_REPEATS):
                # Each step is scaled by the probes either side of it.
                imported, imported_scaled = import_seconds()
                before = probe_median()
                t0 = perf_counter()
                state = workload.setup(ap, seed, sizes, workdir)
                built = perf_counter() - t0
                after = probe_median()
                warm = OpLog(probed=True)
                warm.run_pass(state.ops)
                warm.close()
                raw_setups.append(imported + built + sum(warm.latencies))
                setups.append(
                    imported_scaled + scale(built, before, after) + sum(warm.scaled_latencies())
                )
            log = OpLog(probed=True)
            start = perf_counter()
            while perf_counter() < start + seconds or len(log.outputs) < sizes.min_ops:
                log.run_pass(state.ops)
            log.close()
            elapsed = perf_counter() - start
            latencies, outputs = log.scaled_latencies(), log.outputs
            metrics = {
                "setup_s": (statistics.median(setups), "s"),
                "ops_per_s": (len(outputs) / sum(latencies), "ops/s"),
                "op_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
                "op_p90_ms": (statistics.quantiles(latencies, n=10, method="inclusive")[8] * 1e3, "ms"),
            }
            lines.append(f"set-ups (s, scaled): {', '.join(f'{s:.4f}' for s in setups)}")
            lines.append(f"set-ups (s, raw): {', '.join(f'{s:.4f}' for s in raw_setups)}")
            lines.append(
                f"ops: {len(outputs)} in {elapsed:.2f} s with probes; latency samples: {len(latencies)}; "
                f"raw: {len(outputs) / sum(log.latencies):.4g} ops/s, p50 {statistics.median(log.latencies) * 1e3:.4g} ms; "
                f"probe median {statistics.median(log.probes) * 1e3:.4g} ms"
            )

        failures = check_outputs(workload, ap, state, sizes, outputs)
        canary_ops, canary_failures = canary(workload, ap, sizes, workdir)
        failures += canary_failures
        attempted = len(outputs) + canary_ops
        stats = input_stats(ap, state)
        lines.append("inputs: " + ", ".join(f"{k} {v}" for k, v in stats.items()))
        if trace:
            metrics["core.share_den_bits_max"] = (stats["share_den_bits_max"], "bits")
            metrics["input.nodes_max"] = (stats["nodes_max"], "nodes")
            metrics["input.depth_max"] = (stats["depth_max"], "levels")
            OUT.mkdir(exist_ok=True)
            side = OUT / f"trace-{workload.name}-{seed}.jsonl"
            tracer.write(side, {"workload": workload.name, "seed": seed, "ops": ops})
            lines.append(f"spans: {len(tracer.spans)} written to {side.relative_to(ROOT)}")
        else:
            metrics["peak_rss_mib"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB")
            metrics["ok_ops_ratio"] = (1 - len(failures) / attempted, "ratio")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    lines += [f"FAILED {f}" for f in failures[:20]]
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in sorted(metrics.items())},
    }
    return result, lines


def self_test(ap) -> int:
    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    want = {
        False: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        True: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    if [w["name"] for w in spec["workloads"]] != list(WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from the benchmark's")
    for workload in WORKLOADS.values():
        for trace in (False, True):
            result, _ = run_workload(ap, workload, 7, 0.2, trace, TINY)
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            where = f"{workload.name} trace={int(trace)}"
            if got != want[trace]:
                missing = sorted(set(want[trace].items()) - set(got.items()))
                extra = sorted(set(got.items()) - set(want[trace].items()))
                problems.append(f"{where}: missing {missing}, unexpected {extra}")
            if not result["correct"]:
                problems.append(f"{where}: {result['failed']} of {result['attempted']} ops failed")
    for p in problems:
        print(f"self-test: {p}")
    print("self-test: " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0


def steady(names: list[str], first_seed: int, runs: int, seconds: int) -> int:
    """Run each workload ``runs`` times and report each metric's spread."""
    bounds = {m["name"]: m["bound"] for m in json.loads(SPEC.read_text(encoding="utf-8"))["end_to_end"]}
    status = 0
    for name in names:
        values = defaultdict(list)
        for seed in range(first_seed, first_seed + runs):
            t0 = perf_counter()
            done = subprocess.run(
                [sys.executable, __file__, "--workload", name, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", "0"],
                capture_output=True, text=True, check=True, timeout=600,
            )
            result = json.loads(done.stdout.splitlines()[-1])
            status |= not result["correct"]
            row = {k: m["value"] for k, m in result["metrics"].items()}
            print(f"{name} seed {seed} ({perf_counter() - t0:.1f} s): correct={result['correct']} "
                  + " ".join(f"{k}={v:.6g}" for k, v in row.items()), flush=True)
            for k, v in row.items():
                values[k].append(v)
        for k, vals in values.items():
            q1, _, q3 = statistics.quantiles(vals, n=4)
            med = statistics.median(vals)
            spread = (q3 - q1) / med
            verdict = "ok" if spread < bounds[k] / 3 else "wide"
            print(f"{name:10} {k:14} median {med:<12.6g} q1 {q1:<12.6g} q3 {q3:<12.6g} "
                  f"spread {spread:7.2%} bound {bounds[k]:.0%} {verdict}", flush=True)
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steady", type=int, metavar="N", help="N runs per workload, print spreads")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)

    if not (SRC / "apportree" / "__init__.py").is_file():
        print(f"error: no apportree sources under {SRC}", file=sys.stderr)
        return 2
    if args.seconds is None:
        args.seconds = json.loads(SPEC.read_text(encoding="utf-8"))["run_seconds"]
    if args.steady:
        if args.steady < 2:
            parser.error("--steady needs at least 2 runs")
        names = [args.workload] if args.workload else list(WORKLOADS)
        return steady(names, args.seed, args.steady, args.seconds)
    ap = load_apportree()
    if args.self_test:
        return self_test(ap)
    if args.workload is None:
        parser.error("--workload is required")
    result, lines = run_workload(ap, WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), FULL)
    print("\n".join(lines))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
