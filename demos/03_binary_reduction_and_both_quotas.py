#!/usr/bin/env python3
"""Constructing an allocation that satisfies BOTH quotas at every node.

No seat-by-seat walk can guarantee this, but a direct construction can.
It works in two moves:

1. Rewrite the tree as a full binary tree. Nodes with one child are
   spliced out, and a node with k > 2 children keeps its first child
   and pushes the rest under a new intermediate node. Relative shares
   of all original nodes are preserved exactly.
2. Walk the binary tree top down. At each node the two children get a
   feasible interval of seat counts derived from their quota bounds.
   The intervals always overlap the split, so picking the value nearest
   to the child's exact share keeps every constraint satisfiable all
   the way to the leaves.

The result pulls back to the original tree with zero violations.

allocate_both_quotas simulates the rewrite on the original tree: it
walks the same pairs in one pass without building the binary tree.
The rewrite remains for inspection through to_full_binary (below, and
`apportree reduce`) and trace_both_quotas, which records each pair's
interval from the pass that allocates, keyed by the rewrite's node ids;
it replays nothing.
"""

from apportree import (
    MethodKind,
    TreeFamily,
    TreeKind,
    allocate_both_quotas,
    check_allocation,
    count_violations,
    random_instance,
    run_method,
    to_full_binary,
    trace_both_quotas,
)


def main() -> None:
    inst = random_instance(TreeFamily(TreeKind.FULL_4ARY, 3), seed=5)
    reduction = to_full_binary(inst)
    reduced = reduction.reduced
    print(f"Original 4-ary tree: {inst.n} nodes.")
    print(f"Full binary rewrite: {reduced.n} nodes "
          f"({len(reduction.introduced)} introduced).")
    print("Original node i lives at reduced index node_map[i]. Every node")
    print(f"of this tree survives, so the map is the identity and the new")
    print(f"nodes take ids {reduced.n - len(reduction.introduced)}..{reduced.n - 1}. "
          "Trees with single-child chains lose")
    print("those nodes instead, and pull-back restores their seat counts.")
    print()

    h = 50
    alloc = allocate_both_quotas(inst, h)
    report = check_allocation(inst, alloc)
    print(f"Both-quotas allocation at h = {h}: ok = {report.ok}")
    print(f"  seats: {list(alloc.seats)}")
    print()

    # The trace shows the interval each node was given before its seat
    # count was fixed. Every interval is nonempty, which is the whole
    # point of the construction.
    small = random_instance(TreeFamily(TreeKind.PERFECT_BINARY, 2), seed=9)
    _, _, intervals = trace_both_quotas(small, 11)
    print("Feasible intervals on a small binary tree at h = 11:")
    for iv in intervals:
        target = f"{iv.target.numerator}/{iv.target.denominator}"
        print(f"  node {iv.node}: seats in [{iv.low}, {iv.high}], exact share {target}")
    print()

    # For contrast: the same h = 50 handed out by each walking method.
    print("Violation counts of the four walking methods on the same tree:")
    for method in MethodKind:
        final = run_method(inst, method, h).final
        low, up = count_violations(inst, final.seats)
        print(f"  {method.value:>9}: lower {low}, upper {up}")
    both_low, both_up = count_violations(inst, alloc.seats)
    print(f"  {'both':>9}: lower {both_low}, upper {both_up}")
    print()
    print("The price of the guarantee: the constructed allocation is tied")
    print("to its house size. Repeating it for h and h+1 can move a seat")
    print("away from a node, so it is not house monotone like the walks.")


if __name__ == "__main__":
    main()
