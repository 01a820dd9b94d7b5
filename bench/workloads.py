"""The benchmark's three workloads: seeded inputs, their ops, and output checks.

Every workload is single-process and closed-loop with one client: an op
starts only when the previous one has returned.  A workload's ops form a
fixed schedule that the timed loop repeats, so every schedule slot is run
many times on identical inputs; all inputs are built from ``--seed`` and
handed to the library, which never sees the seed itself.

* ``desk`` is the paper's experiment design.  Slot ``j`` is one
  ``run_experiment`` call (one worker) over 10 consecutive seeds starting
  at ``seed + 10*j`` at house sizes (100, 500) with all four methods,
  rendered with ``emit_table``.  Slots alternate between binary height 3
  (n=15) and 4-ary height 3 (n=29).
* ``big-house`` is a library user re-allocating one big tree: one binary
  height-10 instance (n=2047) built in set-up and reused with warm caches,
  and ``run_method(inst, m, 5000)`` cycling adams, jefferson, quota and
  ucquota.
* ``cli-audit`` is cold CLI requests made in-process through ``cli.main``:
  ``allocate --method both-quotas --seats 10000`` and then ``check
  --strict`` on its output, rotating over binary height 11 (4095 nodes),
  4-ary height 10 (4093 nodes) and a caterpillar of 2001 nodes and depth
  1000.  It never runs the seat-by-seat walk.

Outputs are checked after the timed loop, never inside it.  Each output
must pass the workload's own invariant check and be identical to the
first output of its slot (the library promises byte-identical reruns).
A canary schedule at a fixed seed is then run once and compared with
digests frozen when this benchmark was written.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
from collections.abc import Callable
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

CANARY_SEED = 0


@dataclass(frozen=True)
class Sizes:
    """Input sizes of all workloads; ``full`` is what the benchmark measures."""

    name: str
    desk_height: int = 3
    desk_instances: int = 10
    desk_house_sizes: tuple[int, ...] = (100, 500)
    desk_slots: int = 8
    big_height: int = 10
    big_house: int = 5000
    cli_binary_height: int = 11
    cli_4ary_height: int = 10
    cli_spine: int = 1000
    cli_seats: int = 10000
    min_ops: int = 100


FULL = Sizes("full")
# Small enough that the self-test runs every workload in about a second.
TINY = Sizes(
    "tiny",
    desk_height=2,
    desk_instances=2,
    desk_house_sizes=(10, 20),
    desk_slots=2,
    big_height=4,
    big_house=50,
    cli_binary_height=3,
    cli_4ary_height=2,
    cli_spine=10,
    cli_seats=100,
    min_ops=10,
)

# sha256 prefixes of each canary slot's output at CANARY_SEED, frozen at
# the commit that added this benchmark.
FROZEN = {
    "full": {
        "desk": [
            "bd4826ed71900d84", "eb27d535b4d3e74b", "3f535db14e39c9e7", "9096671e11533782",
            "cdc003c0eec50b3d", "815584ff124373b7", "13bac35b7ab3b33f", "b1cfa8d405bfe689",
        ],
        "big-house": ["6ac968e478535ebe", "89dbffc55f53ef07", "89dbffc55f53ef07", "3a59cdcb02e238c3"],
        "cli-audit": ["b0c01b9e160d834d", "9834c4d500fffee5", "b9818967f61d6c7d"],
    },
    "tiny": {
        "desk": ["05eeb93d451063f1", "46853183a2837c77"],
        "big-house": ["5346aa972acef94c", "3e9c1c9a959126fe", "3e9c1c9a959126fe", "77930a91724fd39c"],
        "cli-audit": ["6ef1c1ed18a5f6d9", "9a429c30e5fd047e", "95abc9e3e01de7fb"],
    },
}

_METHODS = ("adams", "jefferson", "quota", "ucquota")
# The quota side each method guarantees: (never below lower, never above upper).
_GUARANTEES = {
    "adams": (False, True),
    "jefferson": (True, False),
    "quota": (True, False),
    "ucquota": (False, True),
}


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def depth(inst) -> int:
    levels = [0] * inst.n
    for i in inst.bfs_order():
        if i:
            levels[i] = levels[inst.parents[i]] + 1
    return max(levels)


@dataclass
class State:
    """A workload's inputs for one seed, and its schedule of ops.

    ``ops[slot]()`` runs one op and returns its output; ``inputs()`` gives
    the instances the ops work on, for checks and the input-size report.
    """

    ops: list[Callable[[], object]]
    labels: list[str]
    inputs: Callable[[], list]


class Desk:
    name = "desk"

    def setup(self, ap: SimpleNamespace, seed: int, sizes: Sizes, workdir: Path) -> State:
        kinds = (ap.generator.TreeKind.PERFECT_BINARY, ap.generator.TreeKind.FULL_4ARY)
        configs = [
            ap.experiments.ExperimentConfig(
                family=ap.generator.TreeFamily(kinds[j % 2], sizes.desk_height),
                instance_count=sizes.desk_instances,
                base_seed=seed + sizes.desk_instances * j,
                house_sizes=sizes.desk_house_sizes,
            )
            for j in range(sizes.desk_slots)
        ]

        def op(config):
            return lambda: ap.experiments.emit_table(ap.experiments.run_experiment(config, workers=1))

        # run_experiment builds its own instances; rebuilding them here
        # (outside any timing) only serves the input-size report.
        def inputs():
            return [
                ap.generator.random_instance(c.family, c.base_seed + k)
                for c in configs
                for k in range(c.instance_count)
            ]

        return State(
            ops=[op(c) for c in configs],
            labels=[f"{c.family.kind.value}@{c.base_seed}" for c in configs],
            inputs=inputs,
        )

    def digest(self, output) -> str:
        return digest(output)

    def check(self, ap, state: State, slot: int, output: str, sizes: Sizes) -> str | None:
        rows = list(csv.reader(io.StringIO(output)))
        header, body = rows[0], rows[1:]
        expected = [(m, h) for m in _METHODS for h in sizes.desk_house_sizes]
        if [(r[0], int(r[4])) for r in body] != expected:
            return "table rows are not (method, h) in the configured order"
        lq, uq = header.index("lq_violation_rate_pct"), header.index("uq_violation_rate_pct")
        for r in body:
            no_lower, no_upper = _GUARANTEES[r[0]]
            if (no_lower and r[lq] != "0.0000") or (no_upper and r[uq] != "0.0000"):
                return f"{r[0]} h={r[4]} violates its guaranteed quota side"
        return None


class BigHouse:
    name = "big-house"

    def setup(self, ap, seed, sizes, workdir):
        family = ap.generator.TreeFamily(ap.generator.TreeKind.PERFECT_BINARY, sizes.big_height)
        inst = ap.generator.random_instance(family, seed)
        ap.core.require_valid(inst)
        ap.core.relative_entitlements(inst)

        def op(method):
            return lambda: ap.methods.run_method(inst, method, sizes.big_house).final

        return State(ops=[op(m) for m in _METHODS], labels=list(_METHODS), inputs=lambda: [inst])

    def digest(self, output) -> str:
        return digest(f"{output.h}:" + ",".join(map(str, output.seats)))

    def check(self, ap, state, slot, output, sizes):
        if output.h != sizes.big_house or output.seats[0] != sizes.big_house:
            return "root does not hold the whole house"
        report = ap.core.check_allocation(state.inputs()[0], output)
        if report.flow_violations:
            return f"flow not conserved at nodes {report.flow_violations[:5]}"
        no_lower, no_upper = _GUARANTEES[_METHODS[slot]]
        if no_lower and report.lower_violation_count:
            return f"{report.lower_violation_count} lower-quota violations"
        if no_upper and report.upper_violation_count:
            return f"{report.upper_violation_count} upper-quota violations"
        return None


def caterpillar(ap, seed: int, spine: int):
    """A spine of ``spine`` binary splits, each with one leaf hanging off it.

    The shape (2*spine + 1 nodes, depth ``spine``) is fixed; which child
    continues the spine and the integer sibling weights in [1, 10] come
    from SplitMix64 draws, so the instance is bit-stable everywhere.
    """
    rng = ap.generator.SplitMix64(seed)
    parents: list[int | None] = [None]
    weights = [Fraction(1)]
    tip = 0
    for _ in range(spine):
        a, b = rng.randint(1, 10), rng.randint(1, 10)
        first = len(parents)
        parents += [tip, tip]
        weights += [Fraction(a, a + b), Fraction(b, a + b)]
        tip = first + rng.randint(0, 1)
    return ap.core.Instance(parents, weights)


class CliAudit:
    name = "cli-audit"

    def setup(self, ap, seed, sizes, workdir):
        kind = ap.generator.TreeKind
        shapes = [
            ("binary", ap.generator.random_instance(
                ap.generator.TreeFamily(kind.PERFECT_BINARY, sizes.cli_binary_height), seed)),
            ("4ary", ap.generator.random_instance(
                ap.generator.TreeFamily(kind.FULL_4ARY, sizes.cli_4ary_height), seed + 1)),
            ("caterpillar", caterpillar(ap, seed + 2, sizes.cli_spine)),
        ]
        workdir.mkdir(parents=True, exist_ok=True)
        paths = []
        for label, inst in shapes:
            path = workdir / f"{label}.json"
            path.write_text(ap.core.instance_to_json(inst), encoding="utf-8")
            paths.append(str(path))

        def op(path):
            alloc_path = path[: -len(".json")] + ".alloc.json"

            def run():
                out, err = io.StringIO(), io.StringIO()
                with redirect_stdout(out), redirect_stderr(err):
                    rc_alloc = ap.cli.main(
                        ["allocate", path, "--method", "both-quotas", "--seats", str(sizes.cli_seats)]
                    )
                alloc = out.getvalue()
                with open(alloc_path, "w", encoding="utf-8") as f:
                    f.write(alloc)
                report = io.StringIO()
                with redirect_stdout(report), redirect_stderr(err):
                    rc_check = ap.cli.main(["check", path, alloc_path, "--strict"])
                return rc_alloc, alloc, rc_check, report.getvalue()

            return run

        return State(
            ops=[op(p) for p in paths],
            labels=[label for label, _ in shapes],
            inputs=lambda: [inst for _, inst in shapes],
        )

    def digest(self, output) -> str:
        return digest(json.dumps(output))

    def check(self, ap, state, slot, output, sizes):
        rc_alloc, alloc, rc_check, report = output
        if rc_alloc != 0 or rc_check != 0:
            return f"exit codes allocate={rc_alloc} check={rc_check}"
        if not report.startswith("ok:"):
            return f"check did not report ok: {report[:80]!r}"
        doc = json.loads(alloc)
        if doc.get("h") != sizes.cli_seats or len(doc.get("seats", ())) != state.inputs()[slot].n:
            return "allocation has the wrong house size or node count"
        return None


WORKLOADS = {w.name: w for w in (Desk(), BigHouse(), CliAudit())}
