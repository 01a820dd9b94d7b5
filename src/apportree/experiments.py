"""Batch evaluation of the four methods over generated instance families.

The harness generates seeded instances for a configured family, then runs
every method at each house size and aggregates four metrics per
(method, house size) cell:

* lower/upper quota violation rate: nodes in violation as a percentage of
  ``n``, averaged over instances;
* average deviation: mean of ``|seats - strict quota|`` over nodes, then
  over instances;
* maximum deviation: per-instance maximum of the same quantity, averaged
  over instances.

Methods whose theorems force a column to zero (Adams and the upper-
compliant method never violate upper quota; Jefferson and the quota
method never violate lower quota) are asserted to produce exactly zero
there; a nonzero count is an implementation bug and raises immediately.

Aggregation is exact: integer violation counts and Fraction deviation
sums, divided only when a table is rendered.  Within an instance the
deviations stay integers: with ``rnum / rden`` a node's share, it is
``|s * rden - rnum * h| / rden`` seats off, so over ``L``, the lcm of the
``rden``, the sum is one integer numerator, and the maximum is found by
cross-multiplication.  Each instance builds just two Fractions, its sum
and its maximum.  Sums are keyed by instance index and commutative, so a
parallel run over a worker pool produces byte-identical tables to a
serial run of the same config.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
from dataclasses import dataclass, field
from fractions import Fraction

from .core import QuotaMode, _fast_arrays, count_violations
from .generator import TreeFamily, TreeKind, build_tree, assign_entitlements
from .methods import MethodKind, run_method

ALL_METHODS = (MethodKind.ADAMS, MethodKind.JEFFERSON, MethodKind.QUOTA, MethodKind.UC_QUOTA)

# (never-lower-violating, never-upper-violating) per method
_GUARANTEES = {
    MethodKind.ADAMS: (False, True),
    MethodKind.JEFFERSON: (True, False),
    MethodKind.QUOTA: (True, False),
    MethodKind.UC_QUOTA: (False, True),
}


@dataclass(frozen=True)
class ExperimentConfig:
    family: TreeFamily
    instance_count: int = 1000
    base_seed: int = 0
    house_sizes: tuple[int, ...] = (100, 500)
    methods: tuple[MethodKind, ...] = ALL_METHODS
    mode: QuotaMode = QuotaMode.ALL_ANCESTORS
    max_weight: int = 10

    def __post_init__(self):
        if self.instance_count < 1:
            raise ValueError("instance_count must be at least 1")
        if any(h < 1 for h in self.house_sizes):
            raise ValueError("house sizes must be at least 1")
        object.__setattr__(self, "house_sizes", tuple(self.house_sizes))
        object.__setattr__(self, "methods", tuple(self.methods))


@dataclass(frozen=True)
class InstanceMetrics:
    """Exact per-instance, per-method results at one house size."""

    n: int
    lower_violations: int
    upper_violations: int
    deviation_sum: Fraction
    deviation_max: Fraction


def evaluate_instance(inst, method: MethodKind, h: int, mode=QuotaMode.ALL_ANCESTORS) -> InstanceMetrics:
    """Run one method on one instance and measure it exactly."""
    traj = run_method(inst, method, h)
    seats = traj.final.seats
    low, up = count_violations(inst, seats, mode)
    _, _, rnum, rden, _, _, _ = _fast_arrays(inst)
    common = math.lcm(*rden)
    # node i deviates by |s * rden - rnum * h| / rden seats
    dev_sum = 0
    max_num, max_den = 0, 1
    for s, num, den in zip(seats, rnum, rden):
        dev = abs(s * den - num * h)
        dev_sum += dev * (common // den)
        if dev * max_den > max_num * den:
            max_num, max_den = dev, den
    return InstanceMetrics(inst.n, low, up, Fraction(dev_sum, common), Fraction(max_num, max_den))


@dataclass
class TableRow:
    """Exact aggregate for one (method, house size) cell block.

    Keeps raw integer counts and Fraction sums; the percentage and mean
    views divide on demand so no precision is lost in accumulation.
    """

    method: MethodKind
    family: TreeFamily
    n: int
    h: int
    instance_count: int = 0
    lower_violation_total: int = 0
    upper_violation_total: int = 0
    deviation_sum: Fraction = field(default_factory=Fraction)
    deviation_max_sum: Fraction = field(default_factory=Fraction)

    def add(self, m: InstanceMetrics) -> None:
        self.instance_count += 1
        self.lower_violation_total += m.lower_violations
        self.upper_violation_total += m.upper_violations
        self.deviation_sum += m.deviation_sum
        self.deviation_max_sum += m.deviation_max

    @property
    def lq_violation_rate_pct(self) -> Fraction:
        return Fraction(100 * self.lower_violation_total, self.n * self.instance_count)

    @property
    def uq_violation_rate_pct(self) -> Fraction:
        return Fraction(100 * self.upper_violation_total, self.n * self.instance_count)

    @property
    def avg_deviation(self) -> Fraction:
        return self.deviation_sum / (self.n * self.instance_count)

    @property
    def max_deviation(self) -> Fraction:
        return self.deviation_max_sum / self.instance_count


@dataclass(frozen=True)
class MetricsTable:
    config: ExperimentConfig
    rows: tuple[TableRow, ...]


def _evaluate_batch(args) -> list[InstanceMetrics]:
    """Worker task: the metrics of one generated instance for every
    (method, house size), method-major like the table's rows."""
    family, seed, max_weight, methods, house_sizes, mode = args
    inst = assign_entitlements(build_tree(family), seed, max_weight)
    return [evaluate_instance(inst, method, h, mode) for method in methods for h in house_sizes]


def run_experiment(config: ExperimentConfig, workers: int = 1) -> MetricsTable:
    """Evaluate the whole config and aggregate exactly.

    ``workers`` > 1 spreads instances over a process pool of at most
    ``workers`` processes, and no more than there are instances or CPUs;
    because the accumulator only adds exact, per-instance values, the
    result is identical to the serial run.
    Seeds are ``base_seed + index``, so a config names its instances
    independently of worker scheduling.
    """
    n = build_tree(config.family).n
    rows = tuple(
        TableRow(method, config.family, n, h)
        for method in config.methods
        for h in config.house_sizes
    )
    tasks = [
        (config.family, (config.base_seed + k) & ((1 << 64) - 1), config.max_weight,
         config.methods, config.house_sizes, config.mode)
        for k in range(config.instance_count)
    ]
    workers = min(workers, len(tasks), os.cpu_count() or 1)
    if workers > 1:
        from multiprocessing import Pool  # only here: it is slow to import

        with Pool(workers) as pool:
            batches = pool.map(_evaluate_batch, tasks, chunksize=max(1, len(tasks) // (workers * 4)))
    else:
        batches = map(_evaluate_batch, tasks)
    for batch in batches:
        for row, m in zip(rows, batch):
            row.add(m)

    for row in rows:
        no_lower, no_upper = _GUARANTEES[row.method]
        if no_lower and row.lower_violation_total:
            raise RuntimeError(
                f"{row.method.value} produced {row.lower_violation_total} lower-quota "
                f"violations; it is guaranteed never to"
            )
        if no_upper and row.upper_violation_total:
            raise RuntimeError(
                f"{row.method.value} produced {row.upper_violation_total} upper-quota "
                f"violations; it is guaranteed never to"
            )

    return MetricsTable(config, rows)


def format_fixed(value: Fraction, places: int = 4) -> str:
    """Exact fixed-point rendering: round half away from zero, no floats."""
    scale = 10 ** places
    num = value.numerator * scale
    den = value.denominator
    q, r = divmod(abs(num), den)
    if 2 * r >= den:
        q += 1
    sign = "-" if num < 0 else ""
    return f"{sign}{q // scale}.{q % scale:0{places}d}"


_CSV_COLUMNS = (
    "method", "family", "height", "n", "h",
    "lq_violation_rate_pct", "uq_violation_rate_pct", "avg_deviation", "max_deviation",
)


def _row_cells(row: TableRow) -> list[str]:
    return [
        row.method.value,
        row.family.kind.value,
        str(row.family.height),
        str(row.n),
        str(row.h),
        format_fixed(row.lq_violation_rate_pct),
        format_fixed(row.uq_violation_rate_pct),
        format_fixed(row.avg_deviation),
        format_fixed(row.max_deviation),
    ]


def emit_table(table: MetricsTable, format: str = "csv") -> str:
    """Render a table as ``"csv"`` or ``"md"`` (markdown), 4 decimal places either way."""
    if format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(_CSV_COLUMNS)
        for row in table.rows:
            writer.writerow(_row_cells(row))
        return buf.getvalue()
    if format == "md":
        lines = [
            "| " + " | ".join(_CSV_COLUMNS) + " |",
            "|" + "|".join("---" for _ in _CSV_COLUMNS) + "|",
        ]
        for row in table.rows:
            lines.append("| " + " | ".join(_row_cells(row)) + " |")
        return "\n".join(lines) + "\n"
    raise ValueError(f"unknown table format: {format!r}")


def config_from_json(text: str) -> ExperimentConfig:
    """Parse an experiment config document.

    Accepted shape (all fields except family optional):

    .. code-block:: json

        {"family": {"kind": "binary", "height": 3},
         "instance_count": 1000, "base_seed": 0,
         "house_sizes": [100, 500],
         "methods": ["adams", "jefferson", "quota", "ucquota"],
         "mode": "all", "max_weight": 10}
    """
    obj = json.loads(text)
    if not isinstance(obj, dict) or not isinstance(obj.get("family"), dict):
        raise ValueError('config must be an object with a "family" object')
    fam = obj["family"]
    family = TreeFamily(TreeKind(fam.get("kind")), fam.get("height"))
    for key in ("house_sizes", "methods"):
        if not isinstance(obj.get(key, []), list):
            raise ValueError(f'"{key}" must be a list, got {obj[key]!r}')
    kwargs = {}
    for key in ("instance_count", "base_seed", "max_weight"):
        if key in obj:
            kwargs[key] = _json_int(obj[key], f'"{key}"')
    if "house_sizes" in obj:
        kwargs["house_sizes"] = tuple(_json_int(h, 'each "house_sizes" entry') for h in obj["house_sizes"])
    if "methods" in obj:
        kwargs["methods"] = tuple(MethodKind(m) for m in obj["methods"])
    if "mode" in obj:
        kwargs["mode"] = QuotaMode(obj["mode"])
    return ExperimentConfig(family, **kwargs)


def _json_int(value, what: str) -> int:
    # a plain JSON integer: not a bool, a float or a numeric string
    if type(value) is not int:
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return value
