"""Iterative seat-by-seat apportionment methods on entitlement trees.

Every method here hands out the house one seat at a time.  A seat walks
from the root to a leaf, every node it passes gains one seat (so flow
conservation holds after each seat), and at each internal node it goes to
the child that deserves it most.  Siblings share a parent, so ranking them
by seats per parent-relative weight ``w`` ranks them by seats per share of
the house too.  The methods differ in the ranking key and in one cap on
seats per weight: a child holding ``cap * w`` seats or more sits out.

* Adams ranks children by current seats per weight, lowest first, uncapped.
* Jefferson ranks by seats-after-one-more per weight, uncapped.
* The quota method is Jefferson capped at node ``i`` by ``v_i``, the
  node's count after the seat.
* The upper-compliant quota method is Jefferson under an inherited cap:
  ``v_0`` at the root, then ``min(cap * w_c, v_c)`` at child ``c`` (counts
  after the seat), which is the lowest seats-per-share ratio on the path
  times the node's share.  It is never looser than the quota cap, forces
  upper quota, and can be shown to always leave a child eligible.

Adams satisfies upper quota everywhere, Jefferson and the quota method
satisfy lower quota, and the upper-compliant method satisfies upper quota,
all with respect to every ancestor.  Rankings compare exact rationals via
integer cross-multiplication, and ties are broken deterministically, so a
whole trajectory is reproducible from the instance alone: among equally
ranked children the lowest node index wins.  Adams refines this in its
ranking itself: children with zero seats all share the ratio 0/w, and
among them the larger entitlement goes first (the limiting order of V/w as
V approaches 0 from above), the index deciding only exact entitlement
ties.

None of the four methods needs to be walked to learn its final counts:
:func:`run_method` computes ``final`` top down, one single-level split
per node.  The rankings and caps of Adams, Jefferson and the quota method
read only parent-relative weights and the parent's own count, so the
seats a node passes to its children depend only on how many seats reached
it.  The upper-compliant cap depends on the path only through the cap a
seat brings to a node: which child takes the seat depends on that cap and
the counts of the node's own children, and the child passes on
``min(cap * w_c, v_c)``.  So a node is split in one pass over the caps
its seats bring, in arrival order, and most of that pass repeats (see
:func:`_cascade`): a node hands out at most one period of its seats,
fixed by the instance, to learn its children's caps, and fewer than
``D`` more to learn their counts.  Node ``i``'s caps are kept as one
list of integers ``X`` over a denominator ``Q_i`` shared by the whole
list, the product of the weight denominators on its root path (``Q_0 =
1``), so a seat costs one multiplication ``X * wnum[c]`` and integer
comparisons.  ``Q_i`` grows with depth, so a node whose children's
``Q`` would pass 2**60 hands its list on as ``(numerator,
denominator)`` pairs, and its subtree keeps that form, where clamping a
cap to a count resets its denominator to 1.

A node with two children is split in locals, unless it hands caps on as
pairs, and every other node by one heap loop, :func:`_split_wide`, for
caps in either form.  :func:`_work` bounds the steps of all four methods
from each split's cost, known from the child lists and weight
denominators alone, and the command line refuses a run over a fixed
budget of them; the library sets no bound.  What a split reads of a node
that does not depend on ``h`` (its sorted children, their weights, key
units or steps, ``D``, and for the upper-compliant method ``Q_i``, the
pairs mark and the period) is built by one walk, :func:`_build_plan`, on
an instance's first allocation by any method, and kept.  The walk reads
none of it: it stays the trajectory API and the reference the cascade is
tested against.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from enum import Enum
from functools import cached_property
from heapq import heapify, heappop, heappush, heapreplace
from itertools import chain, count, islice, repeat
from operator import add, mul

from .core import Allocation, Instance, _check_house, _check_seats, _Record, require_valid

# the largest Q_c a child's caps keep as one list of numerators (the
# 2**60 of the module docstring)
_Q_LIMIT = 1 << 60

# the most bits a wide node's distinct weight numerators may take in all
# for its keys to go as exact integer steps over their lcm; past it they
# go in fixed point, so no key takes more than about 1024 bits however
# many children a node has
_STEP_BITS = 1024


class MethodKind(Enum):
    ADAMS = "adams"
    JEFFERSON = "jefferson"
    QUOTA = "quota"
    UC_QUOTA = "ucquota"


class NoEligibleChild(RuntimeError):
    """A capped step found no child under its cap.

    Unreachable from flow-conserving seat counts: both the quota cap and
    the upper-compliant cap provably leave at least one eligible child
    then.  Raising it means the input allocation was corrupted (or there
    is a bug), so it is a RuntimeError, not ValueError.
    """

    def __init__(self, method: MethodKind, node: int, house: int):
        self.method = method
        self.node = node
        self.house = house
        super().__init__(
            f"{method.value}: no eligible child under node {node} "
            f"when assigning seat {house + 1}"
        )


def _best_child(seats, kids, wnum, wden, bump: int, qn: int, qd: int) -> int:
    """The child a seat goes to at one node: smallest ``(seats + bump) / w``.

    With ``qn`` > 0 only children holding fewer than ``qn / qd * w`` seats
    compete: the cap on seats per weight.  Ties go to the lowest node id,
    except that among Adams children still at zero seats (``bump`` 0) the
    larger weight leads.  Returns -1 if no child is under the cap.
    """
    best = -1
    bn = bd = 1
    for c in kids:
        vc = seats[c]
        if qn and vc * wden[c] * qd >= qn * wnum[c]:
            continue
        cn = (vc + bump) * wden[c]
        cd = wnum[c]
        if best < 0:
            best, bn, bd = c, cn, cd
            continue
        left = cn * bd
        right = bn * cd
        if left < right:
            best, bn, bd = c, cn, cd
        elif left == right:
            if cn == 0:
                wc = wnum[c] * wden[best]
                wb = wnum[best] * wden[c]
                if wc > wb or (wc == wb and c < best):
                    best, bn, bd = c, cn, cd
            elif c < best:
                best, bn, bd = c, cn, cd
    return best


def _walk(
    inst: Instance, kind: MethodKind, h: int, seats: list[int] | None = None
) -> tuple[list[int], tuple[tuple[int, ...], ...]]:
    """Hand out ``h`` seats one at a time: the final counts and every path.

    The seats go onto ``seats`` in place (all zeros if omitted).  Each
    seat raises a node's count before picking among its children with
    :func:`_best_child`, under the method's cap (see the module
    docstring).  Starting from flow-conserving counts some child is always
    under the cap; otherwise :class:`NoEligibleChild` reports the stuck
    node and the house size before the seat.
    """
    _, _, _, _, wnum, wden, children = require_valid(inst)._fast
    if seats is None:
        seats = [0] * inst.n
    bump = 0 if kind is MethodKind.ADAMS else 1
    is_quota = kind is MethodKind.QUOTA
    is_ucq = kind is MethodKind.UC_QUOTA
    qn, qd = 0, 1
    paths = []
    for _ in range(h):
        seats[0] += 1
        if is_ucq:
            qn, qd = seats[0], 1
        path = [0]
        i = 0
        kids = children[0]
        while kids:
            if is_quota:
                qn = seats[i]
            c = _best_child(seats, kids, wnum, wden, bump, qn, qd)
            if c < 0:
                raise NoEligibleChild(kind, i, seats[0] - 1)
            seats[c] += 1
            if is_ucq:
                vc = seats[c]
                qn *= wnum[c]
                qd *= wden[c]
                if qn >= vc * qd:
                    qn, qd = vc, 1
            path.append(c)
            i = c
            kids = children[c]
        paths.append(tuple(path))
    return seats, tuple(paths)


def step(inst: Instance, alloc: Allocation, method: MethodKind | str) -> tuple[Allocation, tuple[int, ...]]:
    """One seat of ``method``: the allocation after it and the path it took.

    A one-seat :func:`_walk` on a copy of ``alloc.seats``, so ``alloc`` is
    left as it is.  Seats that :func:`~apportree.core.check_allocation`
    rejects raise its :class:`ValueError`.  On flow-conserving seat counts
    a child under the cap always exists; :class:`NoEligibleChild` only
    guards against corrupted inputs.
    """
    _check_seats(inst.n, alloc.seats)
    seats, paths = _walk(inst, MethodKind(method), 1, list(alloc.seats))
    return Allocation(alloc.h + 1, tuple(seats)), paths[0]


def _build_plan(inst: Instance) -> tuple[list[tuple], list[tuple]]:
    """What every cascade reads of each node, whatever the house size, in
    one walk: two lists of one record per node with children, in
    breadth-first order (so after its parent's).

    The first list is what all four methods read.  A node with two
    children has the record ``(i, a, b, na, nb, d)``: ``a < b``, and
    weights ``na / d`` and ``nb / d`` (two weights in lowest terms that
    sum to 1 share their denominator).  A node with one child, or more
    than two, has the record ``(i, kids, None, D, wn, wd, unit, steps,
    first)``:

    * ``kids`` are its children in id order, and ``wn`` and ``wd`` their
      weight numerators and denominators, in the same order;
    * ``D`` is the lcm of the ``wd``;
    * if the distinct ``wn`` take at most ``_STEP_BITS`` bits in all,
      ``unit`` is None, and with ``L`` the lcm of the ``wn`` and ``b``
      children, ``steps[j] = wd[j] * (L // wn[j]) * b``, so that a key
      ``s / w_j`` is ``s * steps[j]`` over ``L * b``, and ``first[j] =
      steps[j] + j``;
    * otherwise ``steps`` and ``first`` are None, and ``unit[j] = wd[j]
      << P``, with ``2**P`` above the product of any two ``wn``, so that
      ``s * unit[j] // wn[j]`` is the key ``s / w_j`` times ``2**P``,
      rounded down.  Two different keys differ by at least ``1 / (wn[j]
      * wn[k]) > 2**-P``, so the rounded keys still rank the children
      exactly, ties included, in O(log) bits each however many distinct
      ``wn`` there are, but a seat must recompute its key.

    The second list is what only the upper-compliant method reads, ``(q,
    qc, keep, L, D)`` at any arity, children in id order:

    * ``q`` is the node's ``Q_i`` (see the module docstring) if its caps
      come as one list of numerators, else 0;
    * ``qc`` holds the children's ``Q``, or is 0 where the node hands its
      caps on as pairs; then the record gains a sixth field, its
      first-list record in the form of a node with one child or more
      than two, which :func:`_split_wide` reads at any arity;
    * ``keep`` tells for each child whether it has children, that is,
      whether it keeps the caps it passes on;
    * ``D`` is the lcm of the children's weight denominators, and ``L``
      the node's period: a node whose caps repeat every ``P`` seats splits
      with the period ``L = lcm(P, D)`` (see :func:`_cascade`), the
      root's ``P`` being 1 and a child's its parent's ``L * w``.  ``L`` is
      0 where caps go on as pairs, at a node whose children are all leaves
      (it passes on no caps), below a node with ``L = 0``, and past
      ``_Q_LIMIT``.

    So no stored ``Q`` or ``L`` passes ``_Q_LIMIT``, and the plan stays
    O(n) words at any depth.
    """
    order, parents, _, _, wnum, wden, children = require_valid(inst)._fast
    lcm = math.lcm
    # Q_i, and L_i of the nodes with children
    qs = [0] * inst.n
    qs[0] = 1
    ls = [0] * inst.n
    plan = []
    uc = []
    keeps = {}  # one tuple per distinct keep
    for i in order:
        kids = children[i]
        if not kids:
            continue
        if len(kids) == 2:
            a, b = kids = sorted(kids)
            d = wden[a]
            rec = (i, a, b, wnum[a], wnum[b], d)
            wd = (d, d)
        else:
            rec = _wide_record(i, kids, wnum, wden)
            kids, d, wd = rec[1], rec[3], rec[5]
        plan.append(rec)
        keep = tuple([bool(children[c]) for c in kids])
        keep = keeps.setdefault(keep, keep)
        q = qs[i]
        if not q or q * max(wd) > _Q_LIMIT:
            wide = rec if rec[2] is None else _wide_record(i, kids, wnum, wden)
            uc.append((q, 0, keep, 0, d, wide))
            continue
        qc = tuple([q * y for y in wd])
        for c, y in zip(kids, qc):
            qs[c] = y
        # the period of the node's caps: 1 at the root, L * w_i below
        p = ls[parents[i]] // wden[i] * wnum[i] if i else 1
        period = lcm(p, d) if p and any(keep) else 0
        if period > _Q_LIMIT:
            period = 0
        ls[i] = period
        uc.append((q, qc, keep, period, d))
    return plan, uc


def _wide_record(i: int, kids, wnum, wden) -> tuple:
    """Node ``i``'s split plan record in the form of a node with one
    child or more than two (see :func:`_build_plan`)."""
    kids = tuple(sorted(kids))
    wn = tuple([wnum[c] for c in kids])
    wd = tuple([wden[c] for c in kids])
    unit = steps = first = None
    if sum(map(int.bit_length, set(wn))) <= _STEP_BITS:
        top = math.lcm(*wn)
        b = len(kids)
        steps = tuple([y * (top // x) * b for x, y in zip(wn, wd)])
        first = tuple([u + j for j, u in enumerate(steps)])
    else:
        p = 2 * max(wn).bit_length()
        unit = tuple([y << p for y in wd])
    return (i, kids, None, math.lcm(*wd), wn, wd, unit, steps, first)


def _splits(children, den) -> list[tuple[int, int, int, bool]]:
    """What :func:`_work` reads of a tree from its child lists and ``den``
    alone: ``(depth, b, D, pairs)`` of each node with ``b`` children, in
    breadth-first order.  ``den[c]`` is node ``c``'s weight denominator
    (the root's 1), or a bound on it, the same for siblings; ``D`` is the
    lcm of the children's, and ``pairs`` :func:`_build_plan`'s rule: the
    node's ``Q`` (the product of ``den`` down from the root, 0 below a node
    marked ``pairs``) times the children's largest ``den`` passes
    ``_Q_LIMIT``.  Two sibling weights in lowest terms that sum to 1 share
    their denominator, so a two-child node reads its first child's."""
    splits = []
    level, depth = [((0,), 1)], 0  # child lists, each with its parent's Q
    while level:
        below = []
        for kids, qp in level:
            for c in kids:
                if grand := children[c]:
                    q = qp * den[c]
                    if len(grand) == 2:
                        d = top = den[grand[0]]
                    else:
                        ds = [den[g] for g in grand]
                        d, top = math.lcm(*ds), max(ds)
                    pairs = not q or q * top > _Q_LIMIT
                    splits.append((depth, len(grand), d, pairs))
                    below.append((grand, 0 if pairs else q))
        level, depth = below, depth + 1
    return splits


def _work(kind: MethodKind, h: int, splits) -> int:
    """A bound on the steps :func:`_cascade` takes to split ``h`` seats.

    ``splits`` is :func:`_splits`' list.  At each node ``m`` seats are
    handed out one at a time, each at a cost stated where :func:`_cascade`
    and :func:`_split_wide` describe the split, a two-child node that
    hands caps on as pairs paying the heap's.  The nodes at one depth hold
    at most ``h`` seats in all, so a depth costs at most the smaller of
    the sum of ``m`` times the cost and ``h`` times the largest cost.
    """
    levels: dict[int, tuple[int, int]] = {}
    for depth, b, d, pairs in splits:
        if kind is MethodKind.UC_QUOTA:
            m = h
        elif b == 2:
            continue
        else:
            m = d - 1 if kind is MethodKind.QUOTA else b
        cost = 1 if b == 2 and not pairs else (b.bit_length() + 4) // 3
        total, top = levels.get(depth, (0, 0))
        levels[depth] = (total + cost * m, max(top, cost))
    return sum(min(total, h * top) for total, top in levels.values())


def _cascade(inst: Instance, kind: MethodKind, h: int) -> list[int]:
    """Final seats of any of the four methods at ``h``, level by level.

    Each node, in breadth-first order, splits its seats among its children
    as the single-level method would, reading its records of the
    instance's split plan (:func:`_build_plan`), built on the instance's
    first cascade and kept.  The divisor methods jump-start every child at
    a count its first seats provably reach before the walk's ``v``-th
    seat, then give out the few left one by one:

    * Jefferson starts at ``floor(v * w)``: each of those seats has key
      ``k / w <= v``, and there are at most ``v`` such seats in all, so
      they all rank among the ``v`` best.  At most ``b - 1`` remain.
    * Adams starts at ``ceil((v - b) * w)``: each of those seats has key
      ``(k - 1) / w < v - b``, and fewer than ``v`` seats have such keys.
      At most ``b`` remain, and at ``v > b`` every start is at least 1.
      At ``v <= b`` the first ``v`` children by larger weight, then lower
      id, take one seat each: Adams' tie among children at zero seats.
    * The quota method's split is periodic: with ``D`` the lcm of the
      children's weight denominators, every quota ``k * w`` is whole at
      ``k`` a multiple of ``D``, and the quota method, meeting both quotas
      at one level (Balinski & Young 1975), gives each child exactly that
      many.  From there every key ``(s + 1) / w`` and every cap ``t * w``
      moves by the same ``k``, so it starts every child at ``k * w`` for
      ``k = v - v mod D`` and gives out the last ``v mod D < D`` seats
      under the caps ``k + 1, ..., v``.  At two children it is
      Jefferson's method: Jefferson's lower quota for the one sibling
      keeps the chosen child under its cap.

    A two-child node, weights ``na / d`` and ``nb / d``, is split by one
    floor division.  With ``s, r = divmod(v * na, d)`` and ``na + nb =
    d``, the seat left over the floors goes to ``a``:

    * under Jefferson and the quota method when ``(s + 1) * nb <= (v - s)
      * na``, which is ``r >= nb``, so ``a`` holds ``s + [r >= nb] =
      floor((v + 1) * na / d)``;
    * under Adams when ``r > na``, or ``r == na`` and ``s > 0 or na >=
      nb`` (equal keys; at zero seats the larger weight, then ``a``).
      ``floor((v - 1) * na / d) + 1 = s + [r >= na]`` differs only at ``r
      == na, s == 0``, that is ``v == 1``, where ``a`` holds 1 iff ``na
      >= nb``.

    Neither needs ``gcd(na, d) = 1``.  Any other node is split by
    :func:`_split_wide`.  In locals :func:`_work` counts one step for each
    of the upper-compliant method's seats (an upper bound), and none for
    the other methods, which split a two-child node by one floor division.

    The upper-compliant method splits a node in one pass over the caps
    the node's seats bring, in arrival order.  The root's ``t``-th seat
    brings the cap ``t``.  Two facts cut the pass short:

    * Every child is fixed at multiples of ``D``.  The cap a node's
      ``k``-th seat brings is at most ``k``, the node's count after it,
      so a child takes the seat only while ``s < k * w``, and holds at
      most ``ceil(k * w)`` after it.  At ``k`` a multiple of ``D`` every
      ``k * w`` is whole and they sum to ``k``, so each child holds
      exactly ``k * w``.  So the node starts its children at ``k * w``
      for ``k = v - v mod D`` and hands out only its last ``v mod D``
      seats, under their own caps.
    * The caps repeat.  If a node's caps repeat every ``P`` seats, each
      ``P`` higher, then after ``t`` seats, ``t`` a multiple of ``L =
      lcm(P, D)``, each child holds ``t * w`` by the first fact, and every
      key ``(s + 1) / w`` and every cap is the first ``L`` seats' plus
      ``t``, and every cap a child passes on, ``min(cap * w, s)``, plus
      ``t * w``.  So the split repeats every ``L`` seats, and child ``j``'s
      caps every ``L * w_j``, each that much higher.  A node whose
      children pass caps on splits only its first ``min(v, L)`` seats to
      give them their caps, which past their end repeat, unrolled lazily
      as far as the child reads them.

    Caps handed on as pairs have no period, so such a node splits all
    its seats if a child keeps caps.  :func:`_uc_split_two` splits a
    two-child node that hands caps on in one list over ``Q_i`` (see the
    module docstring), :func:`_uc_split_wide` every other node.
    """
    if inst._plan is None:
        inst._plan = _build_plan(inst)
    plan, ucplan = inst._plan
    seats = [0] * inst.n
    seats[0] = h
    if kind is MethodKind.UC_QUOTA:
        # the caps node i's seats brought: a list of numerators over Q_i
        # (the root's t-th seat brings t, over Q_0 = 1), which repeats,
        # each time len * Q_i higher, past its end, or one list of
        # numerators and denominators in turn; leaves keep none, and each
        # node's are dropped once the node is split
        caps = [None] * inst.n
        caps[0] = range(1, h + 1)
        for rec, uc in zip(plan, ucplan):
            i = rec[0]
            v = seats[i]
            if not v:
                continue
            xs = caps[i]
            caps[i] = None
            _, qc, keep, period, d = uc[:5]
            split = _uc_split_two if rec[2] and qc else _uc_split_wide
            if any(keep):
                # the children's caps: one period, or all if v is less
                m = period if period and v > period else v
                split(seats, rec, uc, _unrolled(xs, uc, 0, m), caps, 0)
                if m == v:
                    continue
            # every child holds exactly k * w at k = v - v mod D
            k = v - v % d
            split(seats, rec, uc, _unrolled(xs, uc, k, v - k), None, k)
        return seats
    adams = kind is MethodKind.ADAMS
    is_quota = kind is MethodKind.QUOTA
    for rec in plan:
        if rec[2] is None:
            v = seats[rec[0]]
            if not v:
                continue
            _, kids, _, d, wn, wd, unit, steps, _ = rec
            off = (0,) * len(kids)
            m = v - len(kids)
            if is_quota:
                # at k = v - v mod D seats every child holds exactly k * w
                k = v - v % d
                start = [k // y * x for x, y in zip(wn, wd)]
                _split_wide(seats, rec, start, 1, range(k + 1, v + 1), wd, off)
                continue
            if not adams:
                start = [v * x // y for x, y in zip(wn, wd)]
            elif m > 0:
                start = [-(-m * x // y) for x, y in zip(wn, wd)]
            else:
                # the larger weight has the smaller key 1 / w, exact as a
                # step or in fixed point; sorted is stable, so ties keep
                # id order
                key = steps.__getitem__ if steps else lambda j: unit[j] // wn[j]
                for j in sorted(range(len(kids)), key=key)[:v]:
                    seats[kids[j]] = 1
                continue
            _split_wide(seats, rec, start, 0 if adams else 1, repeat(1, v - sum(start)), off, off)
            continue
        i, a, b, na, nb, d = rec
        v = seats[i]
        # the closed forms of the docstring; at v = 0 both give a no seat
        if adams:
            sa = (v - 1) * na // d + 1 if v != 1 or na >= nb else 0
        else:
            sa = (v + 1) * na // d
        seats[a] = sa
        seats[b] = v - sa
    return seats


def _unrolled(xs, uc, k, n):
    """The caps of a node's seats ``k + 1`` to ``k + n`` in the form its
    split reads, from its caps ``xs`` and UC record ``uc``: pairs if
    ``Q_i = uc[0]`` is 0, else a list over ``Q_i`` that past its end
    repeats ``len(xs) * Q_i`` higher (see :func:`_cascade`), paired with
    ``Q_i`` at a node that hands caps on as pairs.  Lazily, but a tail
    past ``k > 0`` is sliced, O(1) on the root's range, not stepped to."""
    q = uc[0]
    if not q:
        it = iter(xs[2 * k : 2 * (k + n)])
        return zip(it, it)
    p = len(xs)
    if k + n <= p:
        ys = xs[k : k + n] if k else islice(xs, n)
    else:
        r = k % p
        blocks = (map(add, xs, repeat(y)) for y in count((k - r) * q, p * q))
        ys = islice(chain.from_iterable(blocks), r, r + n)
    return ys if uc[1] else zip(ys, repeat(q))


def _uc_split_wide(seats, rec, uc, xs, caps, k) -> None:
    """Split a node's seats under the upper-compliant method by
    :func:`_split_wide`, each child starting at ``k * w_j``, ``k`` a
    multiple of ``D``, given the caps ``xs`` after the ``k``-th seat as
    numerators over ``Q_i``, or as pairs ``(x, qd)`` at a node that hands
    its caps on as pairs.  Each non-leaf child gets the caps it passes on
    in ``caps``, unless that is None: a list of numerators, or one of
    numerators and denominators in turn, which the garbage collector does
    not track as it would a tuple per seat."""
    zs = uc[1]
    if not zs:
        rec = uc[5]
        zs = None
    _, kids, _, _, wn, wd, _, _, _ = rec
    adds = [0] * len(kids)
    if caps is not None:
        for j, c in enumerate(kids):
            if uc[2][j]:
                kept = caps[c] = []
                adds[j] = kept.append
    held = [k // y * x for x, y in zip(wn, wd)] if k else [0] * len(kids)
    _split_wide(seats, rec, held, 1, xs, zs, adds)


def _split_wide(seats, rec, held, bump, caps, zs, adds) -> None:
    """Split the seats of a node with one child or more than two, or of
    one that hands its caps on as pairs: the heap split of all four
    methods, with ``rec`` the node's split plan record in that form.

    Child ``j``, in its id order, starts at ``held[j]`` seats (a list the
    split counts on).  Each further seat brings a cap ``x / qd`` and goes
    to the child with the least key ``(s + bump) / w`` among those under
    it, ``s_j * zs[j] < x * wn[j]`` with ``zs[j] = qd * wd[j]``, the tie
    to the lower id.  ``caps`` holds the ``x`` in arrival order, over one
    ``qd``: ``zs`` is ``Q_i * wd`` for the upper-compliant method's list,
    ``wd`` for the quota cap and zeros for Adams and Jefferson, uncapped.
    Or ``zs`` is None and ``caps`` holds pairs ``(x, qd)``, whose ``qd``
    seldom changes from one seat to the next.  If ``adds[j]`` is not
    false, the child passes on ``min(x * wn[j], s_j * zs[j]) / zs[j]``
    after each seat it takes: the numerator, or where the caps come as
    pairs, the numerator and then the denominator, ``(s_j, 1)`` when
    clamped.

    A heap holds each child's next key ``(s + bump) / w_j`` as an int,
    ``key * b + j`` (see :func:`_build_plan` for the key's scale): the
    ``+ j`` makes every entry unique and its child ``entry % b``, and
    equal keys pop in id order, the walk's tie rule.  A seat moves its
    child's entry on by the key step, or, where the node has none,
    recomputes it.  The caps a node's seats bring never decrease: the
    root's ``t``-th seat brings ``t``, the quota cap is the node's own
    count, and a child passes on ``min(cap * w_c, v_c)``, whose terms both
    rise with its seats (an overriding child's ``cap * w_c`` is that min,
    see :func:`_uc_split_two`).  So a child found on top at its cap is parked
    in a second heap, under its key ``s / w_j`` (only the capped methods
    park, and their ``bump`` is 1), until a cap passes it; each park
    follows a seat the child took, so a seat costs O(log b) amortized,
    ``(bit_length(b) + 4) // 3`` steps of :func:`_work`: at the command
    line's budget edge such a seat took about 2, 2 and 5.6 times a
    two-child one at ``b`` = 4, 30 and 10**4.  Some child is always under
    the cap (see the module docstring); if none is, the counts are
    corrupt, and it raises :class:`RuntimeError`.
    """
    _, kids, _, _, wn, _, unit, steps, first = rec
    b = len(kids)
    if steps:
        # (s + bump) * steps[j] + j, where first[j] is steps[j] + j
        heap = list(map(add, map(mul, held, steps), first if bump else range(b)))
    else:
        heap = [(s + bump) * u // n * b + j for j, (s, u, n) in enumerate(zip(held, unit, wn))]
    heapify(heap)
    parked = []
    pairs = zs is None
    if pairs:
        # zs by each cap denominator q met; an unchanged q is mostly one object
        wd, by_q, q = rec[5], {}, None
    for x in caps:
        if pairs:
            x, d = x
            if d is not q:
                q = d
                zs = by_q.get(q) or by_q.setdefault(q, tuple([q * z for z in wd]))
        while parked:
            e = parked[0]
            j = e % b
            s = held[j]
            if s * zs[j] >= x * wn[j]:
                break
            heappop(parked)
            heappush(heap, e + steps[j] if steps else (s + 1) * unit[j] // wn[j] * b + j)
        e = heap[0]
        j = e % b
        y = x * wn[j]
        while held[j] * zs[j] >= y:
            heappop(heap)
            heappush(parked, e - steps[j] if steps else held[j] * unit[j] // wn[j] * b + j)
            if not heap:
                raise RuntimeError("no child under its cap")
            e = heap[0]
            j = e % b
            y = x * wn[j]
        s = held[j] + 1
        held[j] = s
        heapreplace(heap, e + steps[j] if steps else (s + bump) * unit[j] // wn[j] * b + j)
        out = adds[j]
        if out:
            t = s * zs[j]
            if not pairs:
                out(y if y < t else t)
            elif y < t:
                out(y)
                out(zs[j])
            else:
                out(s)
                out(1)
    for c, s in zip(kids, held):
        seats[c] = s


def _uc_split_two(seats, rec, uc, xs, caps, k) -> None:
    """Split a two-child node's seats under the upper-compliant method.

    ``rec`` and ``uc`` are the node's two records of the split plan (see
    :func:`_build_plan`).  Each child starts at ``k * w``, ``k`` a
    multiple of ``D``, and the node's seats after the ``k``-th brought
    the caps ``x / Q_i``, ``x`` from ``xs``.  A child ``c`` counts in
    units of its own ``Q_c = Q_i * wden[c]``: it holds ``t_c = s_c *
    Q_c``, kept by addition, is eligible while ``t_c < y`` with ``y = x *
    wnum[c]`` (that is ``s_c < cap * w_c``), and passes on ``min(y,
    t_c)`` after the seat, over ``Q_c``.  Each non-leaf child gets its
    list in ``caps``, unless that is None.

    The children rank by ``s + 1`` times the sibling's weight numerator,
    ``(s + 1) / w`` times ``na * nb / d``, in steps of ``nb`` for ``a``
    and ``na`` for ``b``; the tie goes to the lower node id.  If the
    first-ranked child ``a`` is at its cap, the other child ``b`` takes
    the seat and passes on ``cap * w_b`` unclamped: with ``v`` the node's
    count after the seat, ranking first gives ``s_a < v * w_a``, so ``cap
    <= s_a / w_a < v``, and then ``cap * w_b - v_b = (s_a - cap * w_a) -
    (v - cap) < w_a * (v - cap) - (v - cap) <= 0``.
    """
    _, a, b, na, nb, d = rec
    _, (qa, qb), (ka, kb), _, _ = uc
    add_a = add_b = None
    if caps is not None:
        if ka:
            keep = caps[a] = []
            add_a = keep.append
        if kb:
            keep = caps[b] = []
            add_b = keep.append
    sa = k // d * na
    sb = k - sa
    ta, tb = sa * qa, sb * qb
    # (s_a + 1) * nb and (s_b + 1) * na, less the same s_a * nb = s_b * na
    # = k * na * nb / d: the lower one ranks first
    ra, rb = nb, na
    for x in xs:
        if ra <= rb:
            y = x * na
            if ta < y:
                ta += qa
                ra += nb
                if add_a:
                    add_a(y if y < ta else ta)
                continue
            tb += qb
            rb += na
            if add_b:
                add_b(x * nb)
        else:
            y = x * nb
            if tb < y:
                tb += qb
                rb += na
                if add_b:
                    add_b(y if y < tb else tb)
                continue
            ta += qa
            ra += nb
            if add_a:
                add_a(x * na)
    seats[a] = ta // qa
    seats[b] = tb // qb


class Trajectory(_Record):
    """A full run of one method: the final allocation plus each seat's path.

    ``paths[k]`` is the root-to-leaf chain the ``k+1``-th seat travelled.
    Replaying path prefixes recovers the allocation at every intermediate
    house size, which is how house monotonicity is observed: the run for
    ``h`` seats is literally a prefix of the run for ``h + 1``.

    ``final`` is computed level by level, and ``paths`` is walked seat by
    seat on first access (then kept), for all four methods.

    ``paths`` is a cached property, not a field: the constructor takes
    only ``instance``, ``method`` and ``final``, and equality, hashing and
    ``repr`` read only those three.  The paths follow from them, so equal
    trajectories still have equal paths.
    """

    instance: Instance
    method: MethodKind
    final: Allocation

    @cached_property
    def paths(self) -> tuple[tuple[int, ...], ...]:
        return _walk(self.instance, self.method, self.final.h)[1]

    def allocation_at(self, h: int) -> Allocation:
        """The allocation after the first ``h`` seats.

        The run for ``h`` seats is a prefix of this one, so this is the
        level-by-level result at ``h``; it does not walk ``paths``.
        """
        _check_house(h)
        if h > self.final.h:
            raise ValueError(f"h must be in 0..{self.final.h}")
        return Allocation(h, tuple(_cascade(self.instance, self.method, h)))

    def allocations(self) -> Iterator[Allocation]:
        """Yield the allocation at every house size from 0 to the final h."""
        seats = [0] * len(self.final.seats)
        yield Allocation(0, tuple(seats))
        for k, path in enumerate(self.paths, start=1):
            for i in path:
                seats[i] += 1
            yield Allocation(k, tuple(seats))


def run_method(inst: Instance, method: MethodKind | str, h: int) -> Trajectory:
    """Allocate ``h`` seats from scratch with the given method.

    The instance is validated first (once per instance: success is
    remembered on it).  All four methods compute the final counts level
    by level; the paths are walked only when first read.
    """
    kind = MethodKind(method)
    _check_house(h)
    return Trajectory(inst, kind, Allocation(h, tuple(_cascade(inst, kind, h))))
