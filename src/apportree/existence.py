"""Constructive proof machinery: both quota bounds are always attainable.

For any valid entitlement tree and any house size there exists an
allocation meeting both the lower and the upper quota at every node, with
respect to every ancestor.  The construction works in two moves:

1. Reduce the tree to an equivalent *full binary* one (every internal node
   has exactly two children).  Weight-1 only children are spliced out, and
   a node with more than two children keeps its first child while the rest
   move under a fresh sibling carrying their combined entitlement, rescaled
   to sum to one again; the fresh node is split the same way until only
   pairs remain.  Seat counts for original nodes can be read back off the
   reduced tree directly.

2. Walk the binary tree top-down.  With every ancestor's seats fixed, a
   node pair (x, y) sharing a parent with ``V`` seats admits the interval
   ``[max(LQ_x, V - UQ_y), min(UQ_x, V - LQ_y)]`` for x's count; the
   interval is never empty, and any choice inside it keeps both quotas
   satisfiable underneath.  This implementation picks the integer nearest
   x's proportional share of ``V`` (exact halves down), clamped into it.

:func:`allocate_both_quotas` does both moves in one integer pass over the
original tree, without building the rewrite: one loop walks each node's
children as the comb of pairs the rewrite would give them, each fresh
holder's seats and share folded into the ancestor ratios as it goes.  Two
children make a single pair, and an only child takes its parent's seats
unchanged, as splicing it out would.  The rewrite itself remains for
inspection: :func:`to_full_binary` (CLI ``reduce``) builds it, and
:func:`trace_both_quotas` runs that same pass on the rewrite and records
each pair's interval, keyed by the rewrite's node ids; it replays nothing.

:class:`EmptyInterval` exists as a guard rail: it is raised if the interval
were ever empty, which the accompanying tests drive hard to show it is not.

A brute-force enumerator over all flow-conserving, quota-compliant
allocations is included for cross-checking, within a budget on the seat
counts it writes.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .core import Allocation, Instance, _check_house, _fold, _Record, require_valid


class EmptyInterval(RuntimeError):
    """The top-down construction found no feasible seat count for a node.

    ``node`` is the id, in the original tree, of the pair's first child.
    """

    def __init__(self, node: int, low: int, high: int, house: int):
        self.node = node
        self.low = low
        self.high = high
        self.house = house
        super().__init__(
            f"no feasible seat count for node {node} at house {house}: "
            f"interval [{low}, {high}] is empty"
        )


class SizeLimitExceeded(ValueError):
    """Brute-force enumeration would write more than its budget of seat counts."""


# The seat counts that brute_force_both_quotas and CLI `allocate
# --trajectory` may write.  At this edge (Python 3.11, 2 vCPUs) `oracle`
# took 0.75 s and 58 MiB peak RSS on a 25-leaf star at h = 5 (53130
# allocations), and `--trajectory` with Jefferson about 1.4 s and 130 MiB
# on a 7-node tree at h = 285713; per count, larger trees cost less.
_COUNT_BUDGET = 2 * 10**6


class FeasibleInterval(_Record):
    """Seat counts node ``node`` may take once its ancestors are fixed.

    ``low``/``high`` bound the choice (inclusive); ``target`` is the exact
    proportional share the construction aims for before clamping.
    """

    node: int
    low: int
    high: int
    target: Fraction


class BinaryReduction(_Record):
    """A tree rewritten to full binary form, with the node correspondence.

    ``node_map[i]`` is the reduced-tree id carrying original node ``i``'s
    seat count (spliced-out nodes point at the ancestor that absorbed
    them).  ``introduced`` lists reduced-tree ids that have no original
    counterpart.
    """

    original: Instance
    reduced: Instance
    node_map: tuple[int, ...]
    introduced: tuple[int, ...]


def to_full_binary(inst: Instance) -> BinaryReduction:
    """Rewrite a valid instance as an equivalent full binary tree.

    Weight-1 only children are merged into their parents; a node with more
    than two children keeps its first child and delegates the rest to a
    fresh sibling (entitlement: one minus the first child's, children
    rescaled accordingly), repeatedly.  Surviving nodes keep their relative
    order and come first in the new numbering; introduced nodes follow in
    creation order.  Linear in the size of the tree.
    """
    require_valid(inst)
    n = inst.n
    parent: list[int | None] = list(inst.parents)
    weight: list[Fraction] = list(inst.weights)
    children: list[list[int]] = [list(k) for k in inst.children]
    absorber = list(range(n))
    created: list[int] = []

    stack = [0]
    while stack:
        i = stack.pop()
        # splice out a chain: an only child always has entitlement 1
        kids = children[i]
        while len(kids) == 1:
            c = kids[0]
            absorber[c] = i
            kids = children[c]
            for g in kids:
                parent[g] = i
        children[i] = kids
        # split a wide node into a right-leaning comb of pairs.  With S_k the
        # sum of the weights of children k.. (S_0 = 1), the fresh node j_k
        # holding children k.. weighs S_k/S_(k-1) and child k under it
        # w_k/S_k: the same values as rescaling the remaining siblings level
        # by level, in O(b).
        b = len(kids)
        if b > 2:
            den = math.lcm(*[weight[c].denominator for c in kids])
            scaled = [weight[c].numerator * (den // weight[c].denominator) for c in kids]
            suffix = scaled[:]
            for k in range(b - 2, -1, -1):
                suffix[k] += suffix[k + 1]
            holder = i
            for k in range(1, b - 1):
                j = len(parent)
                created.append(j)
                parent.append(holder)
                weight.append(Fraction(suffix[k], suffix[k - 1]))
                children.append([])
                children[holder] = [kids[k - 1], j]
                parent[kids[k]] = j
                weight[kids[k]] = Fraction(scaled[k], suffix[k])
                holder = j
            children[holder] = [kids[b - 2], kids[b - 1]]
            parent[kids[b - 1]] = holder
            weight[kids[b - 1]] = Fraction(scaled[b - 1], suffix[b - 2])
        # the comb's fresh nodes are finished; the stack takes the original
        # children in the order splitting them one level at a time would
        stack.extend(kids)

    ordered = [i for i in range(n) if absorber[i] == i] + created
    relabel = [0] * len(parent)
    for k, v in enumerate(ordered):
        relabel[v] = k
    reduced = Instance(
        [None if parent[v] is None else relabel[parent[v]] for v in ordered],
        [weight[v] for v in ordered],
        [[relabel[c] for c in children[v]] for v in ordered],
    )
    node_map = tuple(relabel[absorber[i]] for i in range(n))
    return BinaryReduction(inst, reduced, node_map, tuple(relabel[j] for j in created))


def _pairs(inst: Instance, h: int, seats: list[int]):
    """The both-quotas pass: fill in ``seats`` for ``h``, yielding each pair.

    One top-down integer pass over the original tree: each node carries
    the largest and smallest seats-per-share ratio ``hn/hd`` and ``ln/ld``
    over its ancestors in the binary rewrite, so a child of share ``R`` has
    quotas ``floor(R*hn/hd)`` and ``ceil(R*ln/ld)``.  Per pair of the
    rewrite, yields ``(x, v, low, high, scaled, rest)``: its first child
    ``x``, an original node weighing ``scaled/rest`` in the pair, may take
    ``low..high`` of the pair's ``v`` seats, and takes the integer nearest
    ``scaled * v / rest`` (exact halves down) clamped into them, found by
    one floor division.  Each comb holder, though not a tree node, is
    folded into the extremes by :func:`~apportree.core._fold`.  A two-child
    node's common denominator is its first child's weight denominator, as
    two lowest-terms weights that sum to 1 share theirs.
    """
    order, _, rnum, rden, wnum, wden, children = require_valid(inst)._fast
    seats[0] = h
    extremes = [(h, 1, 0, h, 1, 0)] * inst.n
    for i in order:
        kids = children[i]
        if not kids:
            continue
        # the comb to_full_binary builds: child k weighs scaled_k/den with
        # den the children's common weight denominator, and rest is the sum
        # of scaled_k over k >= m (den at m = 0).  Holder j_m holds children
        # m.. with share a*rest/d and the seats v not yet picked, and child
        # m weighs scaled_m/rest within it; j_0 is node i itself.  Two
        # children are one pair.  An only child takes v and i's extremes;
        # its own ratio, folded when it is reached, equals i's.
        v = seats[i]
        ext = extremes[i]
        den = wden[kids[0]] if len(kids) == 2 else math.lcm(*[wden[c] for c in kids])
        a = rnum[i]
        d = rden[i] * den
        rest = den
        for x in kids[:-1]:
            # fold the holder's seats-per-share ratio into the extremes
            hn, hd, _, ln, ld, _ = ext = extremes[x] = _fold(ext, i, v, a * rest, d)
            scaled = wnum[x] * (den // wden[x])
            xn, xd = rnum[x], rden[x]
            # y is the next holder, or the last child
            yn = a * (rest - scaled)
            low = (xn * hn) // (xd * hd)
            high = -((-(xn * ln)) // (xd * ld))
            if (t := v + (-(yn * ln)) // (d * ld)) > low:
                low = t
            if (t := v - (yn * hn) // (d * hd)) < high:
                high = t
            if low > high:
                raise EmptyInterval(x, low, high, h)
            pick = -((rest - 2 * scaled * v) // (2 * rest))
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
        extremes[c] = ext


def allocate_both_quotas(inst: Instance, h: int) -> Allocation:
    """An allocation of ``h`` seats meeting lower and upper quota everywhere.

    Works for every valid instance and house size; see the module notes
    for the construction.  One integer pass over the original tree.
    """
    _check_house(h)
    seats = [0] * inst.n
    for _ in _pairs(inst, h, seats):
        pass
    return Allocation(h, tuple(seats))


def trace_both_quotas(
    inst: Instance, h: int
) -> tuple[Allocation, BinaryReduction, tuple[FeasibleInterval, ...]]:
    """Like :func:`allocate_both_quotas`, also exposing the binary rewrite
    and the feasible interval of each of its pairs.

    The intervals are those of the pass that allocates, nothing replayed:
    it runs on :func:`to_full_binary`'s tree itself, so
    ``FeasibleInterval.node`` is the pair's first child as a node id of
    that tree, and the intervals come in its breadth-first order.  The
    original nodes' seats are read back through ``node_map``.
    """
    _check_house(h)
    reduction = to_full_binary(inst)
    seats = [0] * reduction.reduced.n
    intervals = tuple(
        FeasibleInterval(x, low, high, Fraction(scaled * v, rest))
        for x, v, low, high, scaled, rest in _pairs(reduction.reduced, h, seats)
    )
    return Allocation(h, tuple([seats[j] for j in reduction.node_map])), reduction, intervals


def brute_force_both_quotas(inst: Instance, h: int) -> tuple[Allocation, ...]:
    """Every allocation of ``h`` seats meeting both quotas at every node.

    Enumerates flow-conserving allocations top-down, pruning with the
    per-child quota bounds, so only compliant allocations are ever
    completed.  Results are deterministic: children take seat values in
    ascending order, node by node in breadth-first order, with bounds from
    the checker's :func:`~apportree.core._fold` and no recursion.

    A node's quotas differ by at most one, so it tries at most two values,
    and a search on 15 nodes keeps at most 2**14 allocations.  The search
    charges one seat count per node it fills in and ``n`` per allocation it
    keeps, and raises :class:`SizeLimitExceeded` once that passes
    ``_COUNT_BUDGET`` (2 * 10**6).
    """
    _check_house(h)
    order, parents, rnum, rden, _, _, children = require_valid(inst)._fast
    slots = order[1:]
    seats = [0] * inst.n
    seats[0] = h
    # per node, once its parent's first child is reached: its quotas, the
    # least and most seats its later siblings can take, and the ancestor
    # extremes it inherits (see _fold)
    bounds = [(h, h, 0, 0, (h, 1, 0, h, 1, 0))] * inst.n
    results: list[Allocation] = []
    # per filled slot: its values left to try, ascending, and the seats
    # left for it and its later siblings
    stack: list[tuple] = []
    charge = 0
    while True:
        if len(stack) == len(slots):
            results.append(Allocation(h, tuple(seats)))
            charge += inst.n
        else:
            c = slots[len(stack)]
            p = parents[c]
            if c == children[p][0]:
                hn, hd, _, ln, ld, _ = ext = _fold(bounds[p][4], p, seats[p], rnum[p], rden[p])
                least = most = 0
                for x in reversed(children[p]):
                    lq = (rnum[x] * hn) // (rden[x] * hd)
                    uq = -((-(rnum[x] * ln)) // (rden[x] * ld))
                    bounds[x] = lq, uq, least, most, ext
                    least += lq
                    most += uq
                left = seats[p]
            lq, uq, least, most, _ = bounds[c]
            stack.append((iter(range(max(lq, left - most), min(uq, left - least) + 1)), left))
            charge += 1
        if charge > _COUNT_BUDGET:
            raise SizeLimitExceeded(f"listing the allocations of h={h} exceeds {_COUNT_BUDGET} seat counts")
        # the next value of the deepest slot that has one left
        while stack and (v := next(stack[-1][0], None)) is None:
            stack.pop()
        if not stack:
            return tuple(results)
        left = stack[-1][1] - v
        seats[slots[len(stack) - 1]] = v
