"""Command-line front-end: validate, allocate, check, reduce, generate,
run experiments, and enumerate small-instance oracles.

Exit codes: 0 on success, 1 on domain errors (invalid instances, stuck
allocations, strict checks that found violations), 2 on usage errors.
All output is byte-deterministic given identical inputs and flags.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .core import (
    InvalidInstanceError,
    QuotaMode,
    allocation_from_json,
    allocation_to_json,
    check_allocation,
    instance_from_json,
    instance_to_json,
    parse_instance_document,
)
from .existence import (
    allocate_both_quotas,
    brute_force_both_quotas,
    to_full_binary,
)
from .experiments import (
    ALL_METHODS,
    ExperimentConfig,
    config_from_json,
    emit_table,
    run_experiment,
)
from .generator import (
    TreeFamily,
    TreeKind,
    random_instance,
)
from .methods import MethodKind, run_method

SEED_ENV_VAR = "APPORTREE_SEED"


def _load(path: str, parse):
    """Read a UTF-8 file and return ``parse(text)``.

    A file that cannot be read, is not UTF-8 or holds malformed JSON
    raises :class:`RuntimeError` with a one-line message naming the file,
    which :func:`main` prints and answers with exit 1.
    """
    try:
        with open(path, "r", encoding="utf-8") as f:
            text = f.read()
    except OSError as exc:
        raise RuntimeError(f"cannot read {path}: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise RuntimeError(f"{path}: not UTF-8 ({exc.reason} at byte {exc.start})") from exc
    try:
        return parse(text)
    except json.JSONDecodeError as exc:
        raise RuntimeError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc


def _cmd_validate(args) -> int:
    inst, errors = parse_instance_document(_load(args.instance, json.loads))
    if inst is None:
        for err in errors:
            print(str(err))
        return 1
    print(f"valid: {inst.n} nodes")
    return 0


def _cmd_allocate(args) -> int:
    inst = _load(args.instance, instance_from_json)
    h = args.seats
    if args.method == "both-quotas":
        if args.trajectory:
            print("error: --trajectory is not defined for both-quotas", file=sys.stderr)
            return 2
        print("note: both-quotas allocations are not house monotone", file=sys.stderr)
        alloc = allocate_both_quotas(inst, h)
        print(allocation_to_json(alloc))
        return 0
    traj = run_method(inst, MethodKind(args.method), h)
    if args.trajectory:
        steps = [list(a.seats) for a in traj.allocations()]
        print(json.dumps({"h": h, "seats": list(traj.final.seats), "trajectory": steps}))
    else:
        print(allocation_to_json(traj.final))
    return 0


def _cmd_check(args) -> int:
    inst = _load(args.instance, instance_from_json)
    alloc = _load(args.allocation, allocation_from_json)
    report = check_allocation(inst, alloc, QuotaMode(args.mode))
    for i in report.flow_violations:
        if i == 0 and alloc.seats[0] != alloc.h:
            print(f"node 0: root has {alloc.seats[0]} seats for house size {alloc.h}")
        else:
            print(f"node {i}: seats do not equal the sum over its children")
    for b in report.bounds:
        i = b.node
        if report.lower_violated[i]:
            print(
                f"node {i}: {alloc.seats[i]} seats below lower quota {b.lower} "
                f"(binding ancestor {b.binding_lower_ancestor})"
            )
        if report.upper_violated[i]:
            print(
                f"node {i}: {alloc.seats[i]} seats above upper quota {b.upper} "
                f"(binding ancestor {b.binding_upper_ancestor})"
            )
    if report.ok:
        print("ok: allocation satisfies both quotas at every node")
        return 0
    print(
        f"lower violations: {report.lower_violation_count}, "
        f"upper violations: {report.upper_violation_count}, "
        f"flow violations: {len(report.flow_violations)}"
    )
    return 1 if args.strict else 0


def _cmd_reduce(args) -> int:
    inst = _load(args.instance, instance_from_json)
    reduction = to_full_binary(inst)
    doc = json.loads(instance_to_json(reduction.reduced))
    doc["node_map"] = list(reduction.node_map)
    doc["introduced"] = list(reduction.introduced)
    print(json.dumps(doc, indent=2))
    return 0


def _cmd_generate(args) -> int:
    seed = args.seed
    if seed is None:
        env = os.environ.get(SEED_ENV_VAR)
        if env is None:
            print(
                f"error: --seed is required (or set {SEED_ENV_VAR})",
                file=sys.stderr,
            )
            return 2
        try:
            seed = int(env)
        except ValueError:
            print(f"error: {SEED_ENV_VAR} must be an integer, got {env!r}", file=sys.stderr)
            return 2
    family = TreeFamily(TreeKind(args.family), args.height)
    inst = random_instance(family, seed, args.max_weight)
    print(instance_to_json(inst))
    return 0


def _cmd_experiment(args) -> int:
    if args.config:
        config = _load(args.config, config_from_json)
    else:
        if args.family is None or args.height is None:
            print("error: provide --config or both --family and --height", file=sys.stderr)
            return 2
        config = ExperimentConfig(
            family=TreeFamily(TreeKind(args.family), args.height),
            instance_count=args.count,
            base_seed=args.base_seed,
            house_sizes=tuple(int(h) for h in args.house_sizes.split(",")),
            methods=tuple(MethodKind(m) for m in args.methods.split(",")) if args.methods else ALL_METHODS,
            max_weight=args.max_weight,
        )
    table = run_experiment(config, workers=args.workers)
    sys.stdout.write(emit_table(table, args.out))
    return 0


def _cmd_oracle(args) -> int:
    inst = _load(args.instance, instance_from_json)
    allocations = brute_force_both_quotas(
        inst, args.seats, max_nodes=args.max_nodes, max_house=args.max_house
    )
    print(
        json.dumps(
            {
                "h": args.seats,
                "count": len(allocations),
                "allocations": [list(a.seats) for a in allocations],
            }
        )
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="apportree",
        description="Seat apportionment over entitlement trees.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check an instance file's structural invariants")
    p.add_argument("instance")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("allocate", help="allocate seats with one of the methods")
    p.add_argument("instance")
    p.add_argument(
        "--method",
        required=True,
        choices=["adams", "jefferson", "quota", "ucquota", "both-quotas"],
    )
    p.add_argument("--seats", type=int, required=True, metavar="H")
    p.add_argument("--trajectory", action="store_true", help="emit every intermediate allocation")
    p.set_defaults(func=_cmd_allocate)

    p = sub.add_parser("check", help="audit an allocation against an instance")
    p.add_argument("instance")
    p.add_argument("allocation")
    p.add_argument("--mode", choices=["all", "root"], default="all")
    p.add_argument("--strict", action="store_true", help="exit 1 if any violation is found")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("reduce", help="rewrite an instance as a full binary tree")
    p.add_argument("instance")
    p.set_defaults(func=_cmd_reduce)

    p = sub.add_parser("generate", help="generate a seeded random instance")
    p.add_argument("--family", required=True, choices=["binary", "4ary"])
    p.add_argument("--height", type=int, required=True, metavar="K")
    p.add_argument("--seed", type=int, default=None, metavar="S")
    p.add_argument("--max-weight", type=int, default=10)
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("experiment", help="run a metrics experiment over generated instances")
    p.add_argument("--config", help="JSON config file")
    p.add_argument("--out", choices=["csv", "md"], default="csv")
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--family", choices=["binary", "4ary"])
    p.add_argument("--height", type=int)
    p.add_argument("--count", type=int, default=1000)
    p.add_argument("--base-seed", type=int, default=0)
    p.add_argument("--house-sizes", default="100,500")
    p.add_argument("--methods", default=None, help="comma-separated method names")
    p.add_argument("--max-weight", type=int, default=10)
    p.set_defaults(func=_cmd_experiment)

    p = sub.add_parser("oracle", help="enumerate every both-quotas allocation (small instances)")
    p.add_argument("instance")
    p.add_argument("--seats", type=int, required=True, metavar="H")
    p.add_argument("--max-nodes", type=int, default=15)
    p.add_argument("--max-house", type=int, default=10)
    p.set_defaults(func=_cmd_oracle)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except InvalidInstanceError as exc:
        for err in exc.errors:
            print(str(err), file=sys.stderr)
        return 1
    except (RuntimeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
