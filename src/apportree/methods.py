"""Iterative seat-by-seat apportionment methods on entitlement trees.

Every method here hands out the house one seat at a time.  A step starts at
the root and walks downward; at each internal node the new seat goes to the
child that currently deserves it most, and every node along the walk gains
one seat, so flow conservation holds after each step.  The methods differ
only in how children are ranked and which of them are eligible:

* Adams ranks children by current seats per share, lowest first.
* Jefferson ranks by seats-after-one-more per share, lowest first.
* The quota-constrained method is Jefferson restricted to children whose
  next seat would keep them under their parent-relative share of the
  parent's upcoming seat count.
* The upper-compliant quota method is Jefferson restricted by a seats-per-
  share threshold carried down the walk; the threshold both forces upper
  quota compliance and (unlike the plain quota constraint) can be shown to
  always leave at least one child eligible.

Adams satisfies upper quota everywhere, Jefferson and the quota-constrained
method satisfy lower quota, and the upper-compliant method satisfies upper
quota, all with respect to every ancestor.  Rankings compare exact
rationals via integer cross-multiplication, and ties are broken
deterministically, so a whole trajectory is reproducible from the instance
alone: among equally ranked children the lowest node index wins.  Adams
refines this in its ranking itself: children with zero seats all share the
ratio 0/R, and among them the larger entitlement goes first (the limiting
order of V/R as V approaches 0 from above), the index deciding only exact
entitlement ties.

Adams, Jefferson and the quota method need not be walked to learn their
final counts.  Their rankings and the quota cap read only parent-relative
weights and the parent's own count, so the seats a node passes to its
children depend only on how many seats reached it: :func:`run_method`
computes ``final`` top down, one single-level apportionment per node.  The
walk stays the trajectory API and the reference the cascade is tested
against; the upper-compliant method, whose threshold depends on the whole
path, is always walked.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from enum import Enum
from functools import cached_property

from .core import Allocation, Instance, _fast_arrays, require_valid


class MethodKind(Enum):
    ADAMS = "adams"
    JEFFERSON = "jefferson"
    QUOTA = "quota"
    UC_QUOTA = "ucquota"


class NoEligibleChild(RuntimeError):
    """A constrained step found no child it was allowed to pick.

    Unreachable from flow-conserving seat counts: both the plain quota
    constraint and the upper-compliant threshold provably leave at least
    one eligible child then.  Raising it means the input allocation was
    corrupted (or there is a bug), so it is a RuntimeError, not ValueError.
    """

    def __init__(self, method: MethodKind, node: int, house: int):
        self.method = method
        self.node = node
        self.house = house
        super().__init__(
            f"{method.value}: no eligible child under node {node} "
            f"when assigning seat {house + 1}"
        )


def _choose_path(inst: Instance, seats, kind: MethodKind) -> list[int]:
    """Pick the root-to-leaf path the next seat travels, without assigning it.

    ``seats`` holds the current (pre-step) counts; every ranking and
    eligibility test below reads only those.
    """
    _, _, rnum, rden, wnum, wden, children = _fast_arrays(inst)
    bump = 0 if kind is MethodKind.ADAMS else 1
    is_quota = kind is MethodKind.QUOTA
    is_ucq = kind is MethodKind.UC_QUOTA

    # upper-compliance threshold, as a fraction tn/td on seats-per-share
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


def step(inst: Instance, alloc: Allocation, method: MethodKind | str) -> tuple[Allocation, tuple[int, ...]]:
    """One seat of ``method``: the allocation after it and the path it took.

    The quota method only considers children whose current seats stay under
    their entitlement share of the parent's incremented count, the
    upper-compliant method those under the seats-per-share threshold.  On
    flow-conserving seat counts an eligible child always exists;
    :class:`NoEligibleChild` only guards the walk against corrupted inputs.
    """
    seats = list(alloc.seats)
    path = _choose_path(inst, seats, MethodKind(method))
    for i in path:
        seats[i] += 1
    return Allocation(alloc.h + 1, tuple(seats)), tuple(path)


def _walk(inst: Instance, kind: MethodKind, h: int) -> tuple[list[int], tuple[tuple[int, ...], ...]]:
    """Hand out ``h`` seats one at a time: the final counts and every path.

    Starting from all zeros every state reached conserves flow, so the
    constrained methods always find an eligible child and
    :class:`NoEligibleChild` never escapes this loop.
    """
    seats = [0] * inst.n
    paths = []
    for _ in range(h):
        path = _choose_path(inst, seats, kind)
        for i in path:
            seats[i] += 1
        paths.append(tuple(path))
    return seats, tuple(paths)


def _best_child(seats, kids, wnum, wden, bump: int, cap: int = 0) -> int:
    """The child the walk would pick at one node: smallest ``(seats + bump) / w``.

    With ``cap`` > 0 only children holding fewer than ``cap * w`` seats
    compete (the quota rule, ``cap`` being the parent's count after this
    seat).  Ties go to the lowest node id, except that among Adams children
    still at zero seats (``bump`` 0) the larger weight leads.
    """
    best = -1
    bn = bd = 1
    for c in kids:
        vc = seats[c]
        if cap and vc * wden[c] >= cap * wnum[c]:
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


def _top_up(seats, kids, r: int, wnum, wden, bump: int) -> None:
    """Give ``r`` more seats to ``kids`` one at a time, as the walk would."""
    for _ in range(r):
        seats[_best_child(seats, kids, wnum, wden, bump)] += 1


def _cascade(inst: Instance, kind: MethodKind, h: int) -> list[int]:
    """Final seats of Adams, Jefferson or quota at ``h``, level by level.

    Each node, in breadth-first order, splits its seats among its children
    as the single-level method would.  The divisor methods jump-start
    every child at a count its first seats provably reach before the
    walk's ``v``-th seat, then give out the few left one by one:

    * Jefferson starts at ``floor(v * w)``: each of those seats has key
      ``k / w <= v``, and there are at most ``v`` such seats in all, so
      they all rank among the ``v`` best.  At most ``b - 1`` remain.
    * Adams starts at ``ceil((v - b) * w)``: each of those seats has key
      ``(k - 1) / w < v - b``, and fewer than ``v`` seats have such keys.
      At most ``b`` remain.

    The quota method splits two-child nodes as Jefferson does (Jefferson's
    lower quota for the one sibling keeps the chosen child under its cap)
    and walks wider nodes seat by seat, on that node alone.
    """
    order, _, _, _, wnum, wden, children = _fast_arrays(inst)
    seats = [0] * inst.n
    seats[0] = h
    adams = kind is MethodKind.ADAMS
    walk_wide = kind is MethodKind.QUOTA
    for i in order:
        kids = children[i]
        v = seats[i]
        if not kids or not v:
            continue
        b = len(kids)
        if walk_wide and b > 2:
            # the children hold t - 1 < t seats in all, so one is under its cap
            for t in range(1, v + 1):
                seats[_best_child(seats, kids, wnum, wden, 1, t)] += 1
            continue
        if adams:
            m = v - b
            if m > 0:
                for c in kids:
                    seats[c] = -(-m * wnum[c] // wden[c])
        else:
            for c in kids:
                seats[c] = v * wnum[c] // wden[c]
        r = v - sum(seats[c] for c in kids)
        _top_up(seats, kids, r, wnum, wden, 0 if adams else 1)
    return seats


@dataclass(frozen=True)
class Trajectory:
    """A full run of one method: the final allocation plus each seat's path.

    ``paths[k]`` is the root-to-leaf chain the ``k+1``-th seat travelled.
    Replaying path prefixes recovers the allocation at every intermediate
    house size, which is how house monotonicity is observed: the run for
    ``h`` seats is literally a prefix of the run for ``h + 1``.

    For Adams, Jefferson and the quota method ``final`` is computed level
    by level, and ``paths`` is walked seat by seat on first access (then
    kept).  The upper-compliant method is walked up front, so its paths
    come with it.

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
        """The allocation after the first ``h`` seats."""
        if not 0 <= h <= self.final.h:
            raise ValueError(f"h must be in 0..{self.final.h}")
        seats = [0] * len(self.final.seats)
        for path in self.paths[:h]:
            for i in path:
                seats[i] += 1
        return Allocation(h, tuple(seats))

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
    remembered on it).  Adams, Jefferson and quota compute the final
    counts level by level; the upper-compliant method walks.
    """
    kind = MethodKind(method) if isinstance(method, str) else method
    if not isinstance(h, int) or isinstance(h, bool) or h < 0:
        raise ValueError("house size must be a non-negative integer")
    require_valid(inst)

    if kind is MethodKind.UC_QUOTA:
        seats, paths = _walk(inst, kind, h)
        traj = Trajectory(inst, kind, Allocation(h, tuple(seats)))
        object.__setattr__(traj, "paths", paths)
        return traj
    return Trajectory(inst, kind, Allocation(h, tuple(_cascade(inst, kind, h))))
