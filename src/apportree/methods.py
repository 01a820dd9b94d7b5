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

Adams, Jefferson and the quota method need not be walked to learn their
final counts.  Their rankings and caps read only parent-relative weights
and the parent's own count, so the seats a node passes to its children
depend only on how many seats reached it: :func:`run_method` computes
``final`` top down, one single-level apportionment per node.  The walk
stays the trajectory API and the reference the cascade is tested against;
the upper-compliant method, whose cap depends on the whole path, is always
walked.
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


def _best_child(seats, kids, wnum, wden, bump: int, qn: int = 0, qd: int = 1) -> int:
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
    _, _, _, _, wnum, wden, children = _fast_arrays(inst)
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
    left as it is.  On flow-conserving seat counts a child under the cap
    always exists; :class:`NoEligibleChild` only guards against corrupted
    inputs.
    """
    seats, paths = _walk(inst, MethodKind(method), 1, list(alloc.seats))
    return Allocation(alloc.h + 1, tuple(seats)), paths[0]


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
    bump = 0 if adams else 1
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
        for _ in range(v - sum(seats[c] for c in kids)):
            seats[_best_child(seats, kids, wnum, wden, bump)] += 1
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
    kind = MethodKind(method)
    if not isinstance(h, int) or isinstance(h, bool) or h < 0:
        raise ValueError("house size must be a non-negative integer")
    require_valid(inst)

    if kind is MethodKind.UC_QUOTA:
        seats, paths = _walk(inst, kind, h)
        traj = Trajectory(inst, kind, Allocation(h, tuple(seats)))
        object.__setattr__(traj, "paths", paths)
        return traj
    return Trajectory(inst, kind, Allocation(h, tuple(_cascade(inst, kind, h))))
