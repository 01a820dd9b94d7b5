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

A cell reads its seats straight from the level-by-level split, with no
trajectory, and ``count_violations`` tests both quotas of every node by
cross-multiplication, without forming them.
Aggregation is exact and stays in integers until a row is complete.
With ``rnum / rden`` a node's share, it is ``|s * rden - rnum * h| / rden``
seats off, so over ``L``, the lcm of the instance's ``rden``, a cell's
deviation sum and maximum are two integer numerators.  A row adds its
cells' violation counts and puts their numerators over one common
denominator, and builds its two Fractions once, from those sums.  Sums
are keyed by instance index and commutative, so a parallel run over a
worker pool produces byte-identical tables to a serial run of the same
config.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
from dataclasses import dataclass, field
from fractions import Fraction

from .core import QuotaMode, _check_house, _fast_arrays, count_violations
from .generator import TreeFamily, TreeKind, _family_tree, assign_entitlements
from .methods import MethodKind, _cascade

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
        for name, least in (("instance_count", 1), ("base_seed", None), ("max_weight", 1)):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool) or least and value < least:
                bound = " of at least 1" if least else ""
                raise ValueError(f"{name} must be an integer{bound}, got {value!r}")
        object.__setattr__(self, "house_sizes", tuple(self.house_sizes))
        object.__setattr__(self, "methods", tuple(map(MethodKind, self.methods)))
        object.__setattr__(self, "mode", QuotaMode(self.mode))
        for h in self.house_sizes:
            _check_house(h)
        if 0 in self.house_sizes:
            raise ValueError("house sizes must be at least 1")


def _cells(inst, methods, house_sizes, mode) -> list[tuple[int, ...]]:
    """Every (method, house size) cell of one instance, method-major, as
    ``(lower, upper, dev_num, max_num, den)``: violation counts, then the
    deviations' sum and maximum over ``den``, the lcm of ``rden``."""
    _, _, rnum, rden, _, _, _ = _fast_arrays(inst)
    common = math.lcm(*rden)
    # node i deviates by |s * rden - rnum * h| / rden seats, which is
    # |s * common - quota| / common with quota = rnum * (common // rden) * h
    quotas = [[num * (common // den) * h for num, den in zip(rnum, rden)] for h in house_sizes]
    cells = []
    for method in methods:
        for h, quota in zip(house_sizes, quotas):
            seats = _cascade(inst, method, h)
            devs = [abs(s * common - q) for s, q in zip(seats, quota)]
            cells.append((*count_violations(inst, seats, mode), sum(devs), max(devs), common))
    return cells


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


def _evaluate_batch(args) -> list[tuple[int, ...]]:
    """Worker task: the cells of one generated instance for every
    (method, house size), method-major like the table's rows."""
    family, seed, max_weight, methods, house_sizes, mode = args
    return _cells(assign_entitlements(_family_tree(family), seed, max_weight), methods, house_sizes, mode)


def _add_cell(total: list[int], cell: tuple[int, ...]) -> None:
    """Add one cell to a row's running sums, in the cell's own layout; both
    deviation sums stay over the lcm of the denominators added so far."""
    low, up, dev, dev_max, den = cell
    common = math.lcm(total[4], den)
    a, b = common // total[4], common // den
    total[:] = total[0] + low, total[1] + up, total[2] * a + dev * b, total[3] * a + dev_max * b, common


def run_experiment(config: ExperimentConfig, workers: int = 1) -> MetricsTable:
    """Evaluate the whole config and aggregate exactly.

    ``workers`` > 1 spreads instances over a process pool of at most
    ``workers`` processes, and no more than there are instances or CPUs.
    Cells come back as ints and each row sums them exactly as they come,
    building its two deviation Fractions once at the end, so the result
    is identical to the serial run.  The family's tree shape is built
    once per process.  Seeds are ``base_seed + index``, so a config names
    its instances independently of worker scheduling.
    """
    n = _family_tree(config.family).n
    tasks = [
        (config.family, config.base_seed + k, config.max_weight,
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
    keys = [(method, h) for method in config.methods for h in config.house_sizes]
    sums = [[0, 0, 0, 0, 1] for _ in keys]
    for batch in batches:
        for total, cell in zip(sums, batch):
            _add_cell(total, cell)

    for (method, h), (low, up, *_) in zip(keys, sums):
        no_lower, no_upper = _GUARANTEES[method]
        for guaranteed, count, side in ((no_lower, low, "lower"), (no_upper, up, "upper")):
            if guaranteed and count:
                raise RuntimeError(
                    f"{method.value} produced {count} {side}-quota violations; it is guaranteed never to"
                )

    return MetricsTable(config, tuple(
        TableRow(method, config.family, n, h, config.instance_count, low, up,
                 Fraction(dev_num, den), Fraction(max_num, den))
        for (method, h), (low, up, dev_num, max_num, den) in zip(keys, sums)
    ))


def format_fixed(value: Fraction) -> str:
    """Exact four-place rendering: round half away from zero, no floats, no "-0.0000"."""
    num = value.numerator * 10000
    den = value.denominator
    q, r = divmod(abs(num), den)
    if 2 * r >= den:
        q += 1
    sign = "-" if num < 0 and q else ""
    return f"{sign}{q // 10000}.{q % 10000:04d}"


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
    # ExperimentConfig checks every field, but would raise TypeError on
    # a bare number where a list belongs
    for key in ("house_sizes", "methods"):
        if not isinstance(obj.get(key, []), list):
            raise ValueError(f'"{key}" must be a list, got {obj[key]!r}')
    keys = ("instance_count", "base_seed", "house_sizes", "methods", "mode", "max_weight")
    return ExperimentConfig(family, **{key: obj[key] for key in keys if key in obj})
