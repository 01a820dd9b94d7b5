"""Command-line front-end: validate, allocate, check, reduce, generate,
run experiments, and enumerate every both-quotas allocation.

Exit codes: 0 on success, 1 on domain errors (invalid instances, stuck
allocations, strict checks that found violations), 2 on usage errors.
All output is byte-deterministic given identical inputs and flags.
"""

from __future__ import annotations

import argparse
import functools
import gc
import json
import os
import sys

from .core import (
    InvalidInstanceError,
    QuotaMode,
    _audit,
    _instance_text,
    _quotas,
    allocation_from_json,
    allocation_to_json,
    instance_from_json,
    instance_to_json,
    parse_instance_document,
)
from .existence import _COUNT_BUDGET, allocate_both_quotas, brute_force_both_quotas, to_full_binary
from .experiments import (
    ALL_METHODS,
    ExperimentConfig,
    config_from_json,
    emit_table,
    run_experiment,
)
from .generator import TreeFamily, build_tree, random_instance
from .methods import MethodKind, _splits, _work, run_method

SEED_ENV_VAR = "APPORTREE_SEED"

# methods._work bounds the steps any method takes, a step being about
# one seat of a two-child split; it counts every ucquota seat, though
# ucquota hands out at most one period and D more at a node.  At 8 * 10**6
# steps `allocate` took (raw wall clock, two runs each, shared 2-vCPU
# Xeon, Python 3.11, at most 42 MiB peak RSS): ucquota on binary height
# 10 0.4 s, on 4-ary height 10 0.2 s, on one node of 4 leaves 0.2 s, of
# 30 of uneven six-decimal weight 0.7 s (0.9 s at h = 2 * 10**6 - 1), of
# 30 of seven-decimal weight 1.0-1.3 s, of 10**4 prime weights 2.5-2.6 s,
# and on heavy_spine(1000) at h = 4008 (pairs caps from depth 4 down, 2
# steps a seat) 1.6-2.2 s, six runs on a busier host; quota on the 30
# seven-decimal leaves 1.2-1.5 s and on the 10**4 primes 2.5-2.6 s, and
# never refused on the others (the 30 six-decimal leaves at their worst,
# h = D - 1: 1.1 s).  So a larger run is refused before it starts; the
# library sets no bound.
_WORK_BUDGET = 8 * 10**6


def _load(path: str, parse):
    """Read a UTF-8 file and return ``parse(text)``.

    A file that cannot be read, is not UTF-8, or holds JSON that is
    malformed or that ``json.loads`` cannot decode (too deep, or an integer
    past 4300 digits) raises :class:`RuntimeError` with a one-line message
    naming the file, which :func:`main` prints and answers with exit 1.
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
    except InvalidInstanceError:
        raise
    except (RecursionError, ValueError) as exc:
        # decoding again, on this error path only, tells a failed decode from parse's own errors
        try:
            json.loads(text)
        except (RecursionError, ValueError):
            raise RuntimeError(f"{path}: cannot decode JSON: {exc}") from exc
        raise


def _check_work(kinds, h: int, children, den) -> None:
    splits = _splits(children, den)
    for kind in kinds:
        work = _work(kind, h, splits)
        if work > _WORK_BUDGET:
            raise ValueError(
                f"{kind.value} at h={h} may take {work} steps, over the budget of {_WORK_BUDGET}"
            )


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
        alloc = allocate_both_quotas(inst, h)
        print("note: both-quotas allocations are not house monotone", file=sys.stderr)
        print(allocation_to_json(alloc))
        return 0
    kind = MethodKind(args.method)
    _check_work([kind], h, inst.children, inst._fast[5])
    if args.trajectory and (h + 1) * inst.n > _COUNT_BUDGET:
        raise ValueError(
            f"--trajectory at h={h} on a tree of {inst.n} nodes prints {(h + 1) * inst.n} "
            f"seat counts, over the budget of {_COUNT_BUDGET}"
        )
    traj = run_method(inst, kind, h)
    if args.trajectory:
        steps = [list(a.seats) for a in traj.allocations()]
        print(json.dumps({"h": h, "seats": list(traj.final.seats), "trajectory": steps}))
    else:
        print(allocation_to_json(traj.final))
    return 0


def _cmd_check(args) -> int:
    inst = _load(args.instance, instance_from_json)
    alloc = _load(args.allocation, allocation_from_json)
    flow = _audit(inst, alloc)
    seats = alloc.seats
    for i in flow:
        if i == 0 and seats[0] != alloc.h:
            print(f"node 0: root has {seats[0]} seats for house size {alloc.h}")
        else:
            print(f"node {i}: seats do not equal the sum over its children")
    # _quotas yields the nodes below the root, whose bounds are its own
    # seats, top down; the few out of bounds go back into node order
    quotas = _quotas(inst, seats, QuotaMode(args.mode))
    bad = sorted(q for q in quotas if not q[1] <= seats[q[0]] <= q[2])
    low = up = 0
    for i, lower, upper, binding_lower, binding_upper in bad:
        v = seats[i]
        if v < lower:
            low += 1
            print(f"node {i}: {v} seats below lower quota {lower} (binding ancestor {binding_lower})")
        if v > upper:
            up += 1
            print(f"node {i}: {v} seats above upper quota {upper} (binding ancestor {binding_upper})")
    if not (flow or low or up):
        print("ok: allocation satisfies both quotas at every node")
        return 0
    print(f"lower violations: {low}, upper violations: {up}, flow violations: {len(flow)}")
    return 1 if args.strict else 0


def _cmd_reduce(args) -> int:
    inst = _load(args.instance, instance_from_json)
    reduction = to_full_binary(inst)
    print(_instance_text(reduction.reduced, node_map=reduction.node_map, introduced=reduction.introduced))
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
    family = TreeFamily(args.family, args.height)
    inst = random_instance(family, seed, args.max_weight)
    print(instance_to_json(inst))
    return 0


def _cmd_experiment(args) -> int:
    if args.config:
        # the file describes the whole experiment, so these flags would go unread
        keys = ("family", "height", "count", "base_seed", "house_sizes", "methods", "max_weight")
        extra = ["--" + key.replace("_", "-") for key in keys if getattr(args, key) is not None]
        if extra:
            print(f"error: --config cannot be combined with {', '.join(extra)}", file=sys.stderr)
            return 2
        config = _load(args.config, config_from_json)
    elif args.family is None or args.height is None:
        print("error: provide --config or both --family and --height", file=sys.stderr)
        return 2
    else:
        given = {"instance_count": args.count, "base_seed": args.base_seed,
                 "house_sizes": args.house_sizes, "max_weight": args.max_weight}
        # a flag left out keeps ExperimentConfig's default
        config = ExperimentConfig(
            family=TreeFamily(args.family, args.height),
            methods=args.methods or ALL_METHODS,
            **{key: value for key, value in given.items() if value is not None},
        )
    # a drawn weight's denominator divides its group's sum of draws
    tree = build_tree(config.family)
    den = [len(tree.children[p]) * config.max_weight if i else 1 for i, p in enumerate(tree.parents)]
    _check_work(config.methods, max(config.house_sizes, default=0), tree.children, den)
    table = run_experiment(config, workers=args.workers)
    sys.stdout.write(emit_table(table, args.out))
    return 0


def _cmd_oracle(args) -> int:
    inst = _load(args.instance, instance_from_json)
    allocations = brute_force_both_quotas(inst, args.seats)
    doc = {"h": args.seats, "count": len(allocations), "allocations": [list(a.seats) for a in allocations]}
    print(json.dumps(doc))
    return 0


def _comma_list(convert, what: str):
    """An argparse type: a comma-separated list of ``convert``'s values,
    empty for an empty string.  A value that does not convert is a usage
    error; one out of range is left to ExperimentConfig, a domain error."""

    def parse(text: str) -> tuple:
        try:
            return tuple(map(convert, text.split(","))) if text else ()
        except ValueError:
            raise argparse.ArgumentTypeError(f"not a comma-separated list of {what}: {text!r}") from None

    return parse


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every command.

    It is built on the first call and shared by every later one, each
    :func:`main` call's included, so callers must not change it.
    """
    parser = argparse.ArgumentParser(
        prog="apportree",
        description="Seat apportionment over entitlement trees.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, help_line, func):
        p = sub.add_parser(name, help=help_line)
        p.set_defaults(func=func)
        return p

    p = command("validate", "check an instance file's structural invariants", _cmd_validate)
    p.add_argument("instance")

    p = command("allocate", "allocate seats with one of the methods", _cmd_allocate)
    p.add_argument("instance")
    p.add_argument(
        "--method",
        required=True,
        choices=["adams", "jefferson", "quota", "ucquota", "both-quotas"],
    )
    p.add_argument("--seats", type=int, required=True, metavar="H")
    p.add_argument("--trajectory", action="store_true", help="emit every intermediate allocation")

    p = command("check", "audit an allocation against an instance", _cmd_check)
    p.add_argument("instance")
    p.add_argument("allocation")
    p.add_argument("--mode", choices=["all", "root"], default="all")
    p.add_argument("--strict", action="store_true", help="exit 1 if any violation is found")

    p = command("reduce", "rewrite an instance as a full binary tree", _cmd_reduce)
    p.add_argument("instance")

    p = command("generate", "generate a seeded random instance", _cmd_generate)
    p.add_argument("--family", required=True, choices=["binary", "4ary"])
    p.add_argument("--height", type=int, required=True, metavar="K")
    p.add_argument("--seed", type=int, default=None, metavar="S")
    p.add_argument("--max-weight", type=int, default=10)

    p = command("experiment", "run a metrics experiment over generated instances", _cmd_experiment)
    p.add_argument("--config", help="JSON config file")
    p.add_argument("--out", choices=["csv", "md"], default="csv")
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--family", choices=["binary", "4ary"])
    p.add_argument("--height", type=int)
    p.add_argument("--count", type=int)
    p.add_argument("--base-seed", type=int)
    p.add_argument("--house-sizes", type=_comma_list(int, "integers"))
    p.add_argument("--methods", type=_comma_list(MethodKind, "method names"),
                   help="comma-separated method names, all by default")
    p.add_argument("--max-weight", type=int)

    p = command("oracle", "list every both-quotas allocation, up to 2 * 10**6 seat counts", _cmd_oracle)
    p.add_argument("instance")
    p.add_argument("--seats", type=int, required=True, metavar="H")
    return parser


def main(argv=None) -> int:
    """Run one command and return its exit code.  The cyclic garbage
    collector is paused while the command runs, which builds many containers;
    past the first call, a call leaves at most a few dozen cyclic objects,
    parsing included (see the README).  The pause ends on every exit path."""
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    enabled = gc.isenabled()
    gc.disable()
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader closed stdout early, as `| head` does.  Point the
        # process's stdout at the null device so that the flush at exit
        # stays quiet, but leave a stdout that a caller swapped in alone.
        if sys.stdout is sys.__stdout__:
            null = os.open(os.devnull, os.O_WRONLY)
            os.dup2(null, sys.stdout.fileno())
            os.close(null)
        return 1
    except InvalidInstanceError as exc:
        for err in exc.errors:
            print(str(err), file=sys.stderr)
        return 1
    except (RuntimeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        if enabled:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
