"""Independent single-level reference methods used as test oracles.

Classical one-level apportionment over a flat list of shares, written
without any of the tree machinery: the divisor methods are realized as
sorted priority lists (party i's k-th seat has priority k-ish over R_i)
rather than as greedy walks, so agreement with the tree code on depth-1
instances is a genuine cross-check, not the same code twice.

Tie conventions mirror the library's: exact priority ties go to the lower
party index, except among parties still at zero seats under the Adams
rule, where the larger share goes first (the limit of seats-per-share
ordering as seats approach zero) and the index only settles exact share
ties.

Then the multi-level walk as the library first wrote it, the reference
for the walk that ranks siblings by parent-relative weight under one cap:
it ranks siblings by their shares of the whole house and carries the
upper-compliant rule as a seats-per-share threshold down the path.

The last part keeps the straightforward instance preparation the
library once used, as references for the linear versions: validation
that walks every node up to the root, shares as running Fraction
products, and the binary rewrite that rescales the remaining siblings
at every level of a comb.  The experiment harness's per-node Fraction
deviations are kept as the reference for its integer sums, rows summed
from those Fractions instance by instance as the reference for rows
summed over one common denominator, and the both-quotas construction
as first written, on the binary rewrite, as the reference for the pass
that simulates the rewrite on the original tree; ``pull_back`` and
``push_forward`` carry allocations between a tree and its rewrite.  That
pass itself is kept as first written, with ``max``, ``min`` and a
rounding helper, as the reference for the one tuned to fewer steps.
"""

from __future__ import annotations

import math
from fractions import Fraction

from apportree import (
    Allocation,
    BinaryReduction,
    EmptyInterval,
    FeasibleInterval,
    Instance,
    MethodKind,
    NoEligibleChild,
    QuotaMode,
    assign_entitlements,
    build_tree,
    count_violations,
    relative_entitlements,
    run_method,
    to_full_binary,
)
from apportree.core import (
    CHILDREN_WEIGHTS_NOT_NORMALIZED,
    NON_TREE,
    WEIGHT_OUT_OF_RANGE,
    StructuralError,
    _fast_arrays,
    _quotas,
)


def adams_single_level(shares: list[Fraction], h: int) -> list[int]:
    """Seat counts after handing out the h best Adams priorities.

    Party i's k-th seat (k >= 1) is ranked by (k - 1) / shares[i],
    ascending; the first h pairs in that order are the seats given.
    """
    n = len(shares)
    pairs = []
    for i in range(n):
        for k in range(1, h + 1):
            ratio = Fraction(k - 1) / shares[i]
            if k == 1:
                key = (ratio, -shares[i], i)
            else:
                key = (ratio, Fraction(0), i)
            pairs.append((key, i))
    pairs.sort(key=lambda p: p[0])
    seats = [0] * n
    for _, i in pairs[:h]:
        seats[i] += 1
    return seats


def jefferson_single_level(shares: list[Fraction], h: int) -> list[int]:
    """Seat counts after handing out the h best Jefferson priorities.

    Party i's k-th seat is ranked by k / shares[i], ascending, ties to the
    lower index.
    """
    n = len(shares)
    pairs = []
    for i in range(n):
        for k in range(1, h + 1):
            pairs.append(((Fraction(k) / shares[i], i), i))
    pairs.sort(key=lambda p: p[0])
    seats = [0] * n
    for _, i in pairs[:h]:
        seats[i] += 1
    return seats


def quota_single_level(shares: list[Fraction], h: int) -> list[int]:
    """The classical quota method: Jefferson restricted to parties whose
    next seat stays within their upper quota at the next house size.

    At house size g the eligible parties satisfy V_i < shares_i * (g + 1);
    among them the smallest (V_i + 1) / shares_i wins, ties to the lower
    index.  An eligible party always exists because the seat totals sum to
    g < g + 1.
    """
    n = len(shares)
    seats = [0] * n
    for g in range(h):
        best = None
        best_key = None
        for i in range(n):
            if seats[i] >= shares[i] * (g + 1):
                continue
            key = (Fraction(seats[i] + 1) / shares[i], i)
            if best_key is None or key < best_key:
                best, best_key = i, key
        assert best is not None
        seats[best] += 1
    return seats


def choose_path_by_global_shares(inst: Instance, seats, kind: MethodKind) -> list[int]:
    """The root-to-leaf path the next seat travels, without assigning it.

    ``seats`` holds the current (pre-step) counts.  Children are ranked by
    ``(V_c + bump) / R_c`` with ``R_c`` the share of the house; the quota
    method skips a child already at its parent-relative share of the
    parent's next count, the upper-compliant method one at or above the
    threshold ``tn / td`` on seats per share, which starts at the root's
    next count and drops to ``(V_c + 1) / R_c`` whenever that is lower.
    """
    shares = shares_by_products(inst)
    rnum = [r.numerator for r in shares]
    rden = [r.denominator for r in shares]
    wnum = [w.numerator for w in inst.weights]
    wden = [w.denominator for w in inst.weights]
    children = inst.children
    bump = 0 if kind is MethodKind.ADAMS else 1
    is_quota = kind is MethodKind.QUOTA
    is_ucq = kind is MethodKind.UC_QUOTA

    tn = seats[0] + 1
    td = 1

    path = [0]
    i = 0
    kids = children[0]
    while kids:
        vi_next = seats[i] + 1
        best = -1
        bn = bd = 1
        for c in kids:
            vc = seats[c]
            if is_quota and vc * wden[c] >= vi_next * wnum[c]:
                continue
            if is_ucq and vc * rden[c] * td >= tn * rnum[c]:
                continue
            cn = (vc + bump) * rden[c]
            cd = rnum[c]
            if best < 0:
                best, bn, bd = c, cn, cd
                continue
            left = cn * bd
            right = bn * cd
            if left < right:
                best, bn, bd = c, cn, cd
            elif left == right:
                if cn == 0:
                    # Adams only: unseated children share ratio 0; the
                    # larger entitlement leads, as V/R would for any V > 0
                    rc = rnum[c] * rden[best]
                    rb = rnum[best] * rden[c]
                    if rc > rb or (rc == rb and c < best):
                        best, bn, bd = c, cn, cd
                elif c < best:
                    best, bn, bd = c, cn, cd
        if best < 0:
            raise NoEligibleChild(kind, i, seats[0])
        if is_ucq:
            un = (seats[best] + 1) * rden[best]
            ud = rnum[best]
            if un * td < tn * ud:
                tn, td = un, ud
        i = best
        path.append(i)
        kids = children[i]
    return path


def walk_by_global_shares(
    inst: Instance, kind: MethodKind, h: int, seats=None
) -> tuple[list[int], tuple[tuple[int, ...], ...]]:
    """Hand out ``h`` seats from ``seats`` (default all zeros), one path each.

    Returns the final counts and every path, as ``methods._walk`` does.
    """
    seats = [0] * inst.n if seats is None else list(seats)
    paths = []
    for _ in range(h):
        path = choose_path_by_global_shares(inst, seats, kind)
        for i in path:
            seats[i] += 1
        paths.append(tuple(path))
    return seats, tuple(paths)


def validate_by_root_walks(inst: Instance) -> list[StructuralError]:
    """Every structural error, finding cycles by walking each node upward.

    O(n * depth); the error list must equal ``validate_instance``'s.
    """
    errors: list[StructuralError] = []
    n = inst.n

    def is_child_id(c) -> bool:
        # a plain int, as validate_instance requires; bool and other int
        # subclasses are not child ids
        return type(c) is int and 0 < c < n

    if inst.parents[0] is not None:
        errors.append(StructuralError(NON_TREE, 0, "root must have no parent"))
    for i in range(1, n):
        p = inst.parents[i]
        if p is None:
            errors.append(StructuralError(NON_TREE, i, "non-root node without a parent"))
        elif not isinstance(p, int) or isinstance(p, bool) or not 0 <= p < n:
            errors.append(StructuralError(NON_TREE, i, f"parent id {p!r} out of range"))
        elif p == i:
            errors.append(StructuralError(NON_TREE, i, "node is its own parent"))

    seen: set[int] = set()
    for i in range(n):
        for c in inst.children[i]:
            if not is_child_id(c):
                errors.append(StructuralError(NON_TREE, i, f"invalid child id {c!r}"))
            elif c in seen:
                errors.append(StructuralError(NON_TREE, c, "node listed as child more than once"))
            else:
                seen.add(c)
                if inst.parents[c] != i:
                    errors.append(
                        StructuralError(NON_TREE, c, "children list disagrees with parent map")
                    )
    for i in range(1, n):
        if i not in seen and isinstance(inst.parents[i], int):
            errors.append(StructuralError(NON_TREE, i, "node missing from its parent's child list"))

    if not errors:
        for i in range(1, n):
            steps = 0
            p = inst.parents[i]
            while p is not None and steps <= n:
                if p == 0:
                    break
                p = inst.parents[p]
                steps += 1
            else:
                errors.append(StructuralError(NON_TREE, i, "node does not reach the root (cycle)"))

    if inst.weights[0] != 1:
        errors.append(
            StructuralError(WEIGHT_OUT_OF_RANGE, 0, f"root weight must be 1, got {inst.weights[0]}")
        )
    for i in range(1, n):
        w = inst.weights[i]
        if not 0 < w <= 1:
            errors.append(StructuralError(WEIGHT_OUT_OF_RANGE, i, f"weight {w} not in (0, 1]"))

    for i in range(n):
        kids = [c for c in inst.children[i] if is_child_id(c)]
        if kids:
            total = sum((inst.weights[c] for c in kids), Fraction(0))
            if total != 1:
                errors.append(
                    StructuralError(
                        CHILDREN_WEIGHTS_NOT_NORMALIZED, i, f"children weights sum to {total}"
                    )
                )
    return errors


def shares_by_products(inst: Instance) -> list[Fraction]:
    """Each node's share of the house as a running Fraction product."""
    shares: list[Fraction] = [inst.weights[0]] * inst.n
    for i in inst.bfs_order()[1:]:
        shares[i] = shares[inst.parents[i]] * inst.weights[i]
    return shares


def binary_by_rescaling(inst: Instance) -> tuple[Instance, tuple[int, ...], tuple[int, ...]]:
    """``(reduced, node_map, introduced)`` of the full binary rewrite.

    Splits a node with more than two children one level at a time,
    dividing every remaining sibling by their combined weight at each
    level: O(b^2) Fraction divisions for ``b`` children.
    """
    n = inst.n
    parent: dict[int, int | None] = {i: inst.parents[i] for i in range(n)}
    weight: dict[int, Fraction] = {i: inst.weights[i] for i in range(n)}
    children: dict[int, list[int]] = {i: list(inst.children[i]) for i in range(n)}
    alias: dict[int, int] = {}
    created: list[int] = []
    next_id = n

    queue = [0]
    while queue:
        i = queue.pop()
        while len(children[i]) == 1:
            c = children[i][0]
            alias[c] = i
            children[i] = children[c]
            for g in children[c]:
                parent[g] = i
            del children[c], parent[c], weight[c]
        queue.extend(children[i])

    queue = [0]
    while queue:
        i = queue.pop()
        kids = children[i]
        if len(kids) > 2:
            first = kids[0]
            rest = kids[1:]
            rest_weight = 1 - weight[first]
            j = next_id
            next_id += 1
            created.append(j)
            parent[j] = i
            weight[j] = rest_weight
            children[j] = rest
            children[i] = [first, j]
            for c in rest:
                parent[c] = j
                weight[c] = weight[c] / rest_weight
            queue.append(first)
            queue.append(j)
        else:
            queue.extend(kids)

    survivors = [i for i in range(n) if i not in alias]
    ordered = survivors + created
    relabel = {v: k for k, v in enumerate(ordered)}
    reduced = Instance(
        [None if parent[v] is None else relabel[parent[v]] for v in ordered],
        [weight[v] for v in ordered],
        [[relabel[c] for c in children[v]] for v in ordered],
    )
    node_map = tuple(relabel[alias.get(i, i)] for i in range(n))
    return reduced, node_map, tuple(relabel[j] for j in created)


def deviations_by_fractions(inst: Instance, seats, h: int) -> tuple[Fraction, Fraction]:
    """``(sum, max)`` over nodes of ``|seats - share * h|``, one Fraction per node."""
    shares = relative_entitlements(inst)
    dev_sum = Fraction(0)
    dev_max = Fraction(0)
    for i in range(inst.n):
        dev = abs(seats[i] - shares[i] * h)
        dev_sum += dev
        if dev > dev_max:
            dev_max = dev
    return dev_sum, dev_max


def rows_by_summed_metrics(config) -> list[tuple[int, int, Fraction, Fraction, int]]:
    """Each row of ``config`` as ``(lower total, upper total, deviation sum,
    deviation max sum, instance count)``, method-major, adding one
    instance's violation counts and Fraction deviations at a time."""
    keys = [(method, h) for method in config.methods for h in config.house_sizes]
    rows = {key: (0, 0, Fraction(0), Fraction(0), 0) for key in keys}
    for k in range(config.instance_count):
        seed = (config.base_seed + k) % 2**64
        inst = assign_entitlements(build_tree(config.family), seed, config.max_weight)
        for method, h in keys:
            seats = run_method(inst, method, h).final.seats
            lower, upper = count_violations(inst, seats, config.mode)
            dev_sum, dev_max = deviations_by_fractions(inst, seats, h)
            low, up, dev, top, count = rows[method, h]
            rows[method, h] = (low + lower, up + upper, dev + dev_sum, top + dev_max, count + 1)
    return [rows[key] for key in keys]


def both_quotas_by_reduction(
    inst: Instance, h: int
) -> tuple[Allocation, BinaryReduction, tuple[FeasibleInterval, ...]]:
    """Both-quotas seats solved on the full binary rewrite, then pulled back.

    Each pair ``(x, y)`` of the rewrite splits its parent's ``v`` seats:
    ``x`` takes the integer nearest ``w_x * v`` (halves down), clamped into
    ``[max(LQ_x, v - UQ_y), min(UQ_x, v - LQ_y)]``.  Returns the pulled-back
    allocation, the rewrite and each pair's interval on it, as
    ``trace_both_quotas`` does.
    """
    reduction = to_full_binary(inst)
    reduced = reduction.reduced
    _, parents, _, _, wnum, wden, _ = _fast_arrays(reduced)
    seats = [0] * reduced.n
    seats[0] = h
    intervals = []
    # siblings come out of the breadth-first pass one after the other, and
    # a node's seats are read only once its children are reached
    quotas = _quotas(reduced, seats, QuotaMode.ALL_ANCESTORS)
    for x, lq_x, uq_x, _, _ in quotas:
        y, lq_y, uq_y, _, _ = next(quotas)
        v = seats[parents[x]]
        low = max(lq_x, v - uq_y)
        high = min(uq_x, v - lq_y)
        if low > high:
            raise EmptyInterval(x, low, high, h)
        target = Fraction(wnum[x] * v, wden[x])
        intervals.append(FeasibleInterval(x, low, high, target))
        pick = math.floor(target + Fraction(1, 2))
        if pick - target == Fraction(1, 2):
            pick -= 1
        pick = min(max(pick, low), high)
        seats[x] = pick
        seats[y] = v - pick
    alloc = pull_back(reduction, Allocation(h, tuple(seats)))
    return alloc, reduction, tuple(intervals)


def _nearest_down(num: int, den: int) -> int:
    """The integer nearest num/den, rounding exact halves down."""
    return -((-(2 * num - den)) // (2 * den))


def _pairs_as_written(inst: Instance, h: int, seats: list[int]):
    """``existence._pairs`` as first written: fills in ``seats`` and yields
    ``(x, v, low, high, scaled, rest)`` per pair of the binary rewrite."""
    order, _, rnum, rden, wnum, wden, children = _fast_arrays(inst)
    seats[0] = h
    extremes = [(h, 1, h, 1)] * inst.n
    for i in order:
        kids = children[i]
        if not kids:
            continue
        v = seats[i]
        hn, hd, ln, ld = extremes[i]
        den = math.lcm(*[wden[c] for c in kids])
        a = rnum[i]
        d = rden[i] * den
        rest = den
        for x in kids[:-1]:
            pn = v * d
            pd = a * rest
            if pn * hd > hn * pd:
                hn, hd = pn, pd
            if pn * ld < ln * pd:
                ln, ld = pn, pd
            extremes[x] = hn, hd, ln, ld
            scaled = wnum[x] * (den // wden[x])
            xn, xd = rnum[x], rden[x]
            yn = a * (rest - scaled)
            low = max((xn * hn) // (xd * hd), v + (-(yn * ln)) // (d * ld))
            high = min(-((-(xn * ln)) // (xd * ld)), v - (yn * hn) // (d * hd))
            if low > high:
                raise EmptyInterval(x, low, high, h)
            pick = _nearest_down(scaled * v, rest)
            if pick < low:
                pick = low
            elif pick > high:
                pick = high
            seats[x] = pick
            yield x, v, low, high, scaled, rest
            v -= pick
            rest -= scaled
        c = kids[-1]
        seats[c] = v
        extremes[c] = hn, hd, ln, ld


def both_quotas_by_pass_as_written(
    inst: Instance, h: int
) -> tuple[Allocation, tuple[FeasibleInterval, ...]]:
    """``allocate_both_quotas``'s seats and ``trace_both_quotas``' intervals
    (keyed by the rewrite's ids), both from :func:`_pairs_as_written`."""
    seats = [0] * inst.n
    for _ in _pairs_as_written(inst, h, seats):
        pass
    reduced = to_full_binary(inst).reduced
    intervals = tuple(
        FeasibleInterval(x, low, high, Fraction(scaled * v, rest))
        for x, v, low, high, scaled, rest in _pairs_as_written(reduced, h, [0] * reduced.n)
    )
    return Allocation(h, tuple(seats)), intervals


def pull_back(reduction: BinaryReduction, alloc: Allocation) -> Allocation:
    """Translate an allocation on the reduced tree to the original."""
    if len(alloc.seats) != reduction.reduced.n:
        raise ValueError("allocation does not match the reduced tree")
    node_map = reduction.node_map
    return Allocation(alloc.h, tuple(alloc.seats[node_map[i]] for i in range(reduction.original.n)))


def push_forward(reduction: BinaryReduction, alloc: Allocation) -> Allocation:
    """Translate an allocation on the original tree to the reduced one.

    Introduced nodes take the sum of their children's seats; spliced
    nodes need no entry of their own.
    """
    if len(alloc.seats) != reduction.original.n:
        raise ValueError("allocation does not match the original tree")
    reduced = reduction.reduced
    seats = [0] * reduced.n
    for i in range(reduction.original.n):
        seats[reduction.node_map[i]] = alloc.seats[i]
    introduced = set(reduction.introduced)
    for k in reversed(reduced.bfs_order()):
        if k in introduced:
            seats[k] = sum(seats[c] for c in reduced.children[k])
    return Allocation(alloc.h, tuple(seats))
