"""Entitlement trees and exact quota checking.

An apportionment instance is a rooted tree in which every node carries an
entitlement relative to its parent: sibling entitlements sum to exactly 1,
and the root's entitlement is 1.  Allocating a house of ``h`` seats means
giving every node an integer seat count such that the root receives all
``h`` seats and every internal node's seats equal the sum of its children's.

A node's share of the whole house is the product of entitlements along the
path from the root (its *relative entitlement*).  Quota bounds compare a
node against **every** ancestor, not just the root: the lower quota is the
largest floor of (share relative to ancestor) x (ancestor's seats) over all
ancestors, the upper quota the smallest such ceiling.  A weaker, root-only
variant is available via :class:`QuotaMode`.

All arithmetic here is exact.  Entitlements and shares are
:class:`fractions.Fraction` values; comparisons never touch floating point,
so ties and quota boundaries are decided soundly.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Sequence


class InvalidInstanceError(ValueError):
    """Raised when an operation requires a valid instance but got errors."""

    def __init__(self, errors: Sequence["StructuralError"]):
        self.errors = list(errors)
        super().__init__("; ".join(str(e) for e in errors))


# Error kinds reported by validate_instance / the JSON loaders.
NON_TREE = "NonTree"
WEIGHT_OUT_OF_RANGE = "WeightOutOfRange"
CHILDREN_WEIGHTS_NOT_NORMALIZED = "ChildrenWeightsNotNormalized"


@dataclass(frozen=True)
class StructuralError:
    kind: str
    node: int | None
    message: str

    def __str__(self) -> str:
        where = "" if self.node is None else f" (node {self.node})"
        return f"{self.kind}{where}: {self.message}"


_WEIGHT_RE = re.compile(r"([0-9]+)(?:/([0-9]+))?")


def parse_weight(text: str) -> Fraction:
    """Parse an entitlement written as ``"p"`` or ``"p/q"``.

    Only non-negative integer numerators and positive integer denominators
    are accepted; decimals are rejected so that entitlements stay exact.
    """
    m = _WEIGHT_RE.fullmatch(text.strip())
    if m is None:
        raise ValueError(f"not a rational 'p' or 'p/q' string: {text!r}")
    num = int(m.group(1))
    den = int(m.group(2)) if m.group(2) else 1
    if den == 0:
        raise ValueError(f"zero denominator in weight: {text!r}")
    return Fraction(num, den)


class Instance:
    """A rooted entitlement tree with dense node ids ``0..n-1``.

    ``parents[0]`` is ``None`` and ``parents[i]`` is the parent id of node
    ``i``.  ``weights[i]`` is node ``i``'s entitlement relative to its
    parent (the root's is 1).  ``children`` keeps each node's children in
    input order; that order drives deterministic tie-breaking everywhere.

    Instances are immutable after construction and safe to share between
    threads.  Construction does not validate; see :func:`validate_instance`.
    """

    __slots__ = ("parents", "weights", "children", "_shares", "_fast", "_order", "_valid")

    def __init__(
        self,
        parents: Sequence[int | None],
        weights: Sequence[Fraction | int | str],
        children: Sequence[Sequence[int]] | None = None,
    ):
        self.parents = tuple(parents)
        self.weights = tuple(
            w if isinstance(w, Fraction) else
            parse_weight(w) if isinstance(w, str) else Fraction(w)
            for w in weights
        )
        n = len(self.parents)
        if n == 0:
            raise ValueError("instance needs at least the root node")
        if len(self.weights) != n:
            raise ValueError("parents and weights must have equal length")
        if children is None:
            kids: list[list[int]] = [[] for _ in range(n)]
            for i, p in enumerate(self.parents):
                if i != 0 and isinstance(p, int) and 0 <= p < n:
                    kids[p].append(i)
            self.children = tuple(tuple(k) for k in kids)
        else:
            self.children = tuple(tuple(k) for k in children)
        self._shares: tuple[Fraction, ...] | None = None
        self._fast = None
        self._order: tuple[int, ...] | None = None
        self._valid = False

    @property
    def n(self) -> int:
        return len(self.parents)

    def bfs_order(self) -> tuple[int, ...]:
        """Node ids in breadth-first order from the root (parents first)."""
        if self._order is None:
            order = [0]
            for i in order:
                order.extend(self.children[i])
            self._order = tuple(order)
        return self._order

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Instance):
            return NotImplemented
        return (
            self.parents == other.parents
            and self.weights == other.weights
            and self.children == other.children
        )

    def __hash__(self) -> int:
        return hash((self.parents, self.weights, self.children))

    def __repr__(self) -> str:
        return f"Instance(n={self.n})"


def validate_instance(inst: Instance) -> list[StructuralError]:
    """Check every structural invariant; an empty list means the instance is ok.

    Reports one entry per violated invariant with the offending node:
    ``NonTree`` for parent/cycle/connectivity defects, ``WeightOutOfRange``
    for entitlements outside (0, 1] (or a root entitlement other than 1),
    and ``ChildrenWeightsNotNormalized`` with the exact sibling sum.
    """
    errors: list[StructuralError] = []
    n = inst.n

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

    # children lists must partition 1..n-1 consistently with the parent map;
    # a child id must be a plain int, so a bool is not one
    seen: set[int] = set()
    sibling_lists = inst.children
    for i in range(n):
        for c in inst.children[i]:
            if type(c) is not int or not 0 < c < n:
                errors.append(StructuralError(NON_TREE, i, f"invalid child id {c!r}"))
                sibling_lists = None
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

    # connectivity: the child lists are now the exact inverse of the parent
    # map, so a node reaches the root iff the search from the root finds it
    if not errors:
        order = inst.bfs_order()
        if len(order) != n:
            reached = bytearray(n)
            for i in order:
                reached[i] = 1
            for i in range(1, n):
                if not reached[i]:
                    errors.append(StructuralError(NON_TREE, i, "node does not reach the root (cycle)"))

    weights = inst.weights
    wnum = [w.numerator for w in weights]
    wden = [w.denominator for w in weights]
    if weights[0] != 1:
        errors.append(
            StructuralError(WEIGHT_OUT_OF_RANGE, 0, f"root weight must be 1, got {weights[0]}")
        )
    for i in range(1, n):
        if not 0 < wnum[i] <= wden[i]:
            errors.append(StructuralError(WEIGHT_OUT_OF_RANGE, i, f"weight {weights[i]} not in (0, 1]"))

    # each sibling sum in integers over the least common denominator, over
    # the listed ids that name nodes
    if sibling_lists is None:
        sibling_lists = [[c for c in kids if type(c) is int and 0 < c < n] for kids in inst.children]
    lcm = math.lcm
    for i, kids in enumerate(sibling_lists):
        if kids:
            den = lcm(*[wden[c] for c in kids])
            num = sum([wnum[c] * (den // wden[c]) for c in kids])
            if num != den:
                errors.append(
                    StructuralError(
                        CHILDREN_WEIGHTS_NOT_NORMALIZED, i,
                        f"children weights sum to {Fraction(num, den)}",
                    )
                )
    return errors


def require_valid(inst: Instance) -> Instance:
    """Return ``inst`` if valid, else raise :class:`InvalidInstanceError`.

    Success is remembered on the instance, so later calls return at once;
    failure is not, so an invalid instance raises on every call.
    """
    if not inst._valid:
        errors = validate_instance(inst)
        if errors:
            raise InvalidInstanceError(errors)
        inst._valid = True
    return inst


def relative_entitlements(inst: Instance) -> tuple[Fraction, ...]:
    """All relative entitlements: node i's share of the whole house.

    The root's is 1; every other node's is its entitlement times its
    parent's relative entitlement, computed exactly.
    """
    if inst._shares is None:
        _, _, rnum, rden, _, _, _ = _fast_arrays(inst)
        inst._shares = tuple(map(Fraction, rnum, rden))
    return inst._shares


def _fast_arrays(inst: Instance):
    """Per-instance integer arrays for the hot loops.

    Returns ``(order, parents, rnum, rden, wnum, wden, children)`` where
    node ``i``'s relative entitlement is ``rnum[i]/rden[i]`` and its
    parent-relative entitlement ``wnum[i]/wden[i]``, both in lowest terms,
    and ``order`` is breadth-first.  Cached on the instance.  Raises
    :class:`InvalidInstanceError` if some node is unreachable from the root.
    """
    if inst._fast is None:
        order = inst.bfs_order()
        parents = inst.parents
        wnum = [w.numerator for w in inst.weights]
        wden = [w.denominator for w in inst.weights]
        # a zero denominator marks a share not computed yet
        rnum = [0] * inst.n
        rden = [0] * inst.n
        rnum[0] = wnum[0]
        rden[0] = wden[0]
        gcd = math.gcd
        for i in order:
            if i == 0:
                continue
            p = parents[i]
            if p is None or not rden[p]:
                raise InvalidInstanceError([StructuralError(NON_TREE, i, "unreachable from root")])
            # the parent's share times the node's weight, cancelled crosswise
            # as Fraction multiplication does, so both stay in lowest terms
            a, b, c, d = rnum[p], rden[p], wnum[i], wden[i]
            g1 = gcd(a, d)
            g2 = gcd(c, b)
            rnum[i] = (a // g1) * (c // g2)
            rden[i] = (b // g2) * (d // g1)
        if not all(rden):
            raise InvalidInstanceError([StructuralError(NON_TREE, None, "tree is not connected")])
        inst._fast = (
            list(order),
            list(parents),
            rnum,
            rden,
            wnum,
            wden,
            [list(k) for k in inst.children],
        )
    return inst._fast


@dataclass(frozen=True)
class Allocation:
    """Seat counts per node for a house of ``h`` seats."""

    h: int
    seats: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "seats", tuple(self.seats))


class QuotaMode(Enum):
    """Which ancestors constrain a node's quota bounds."""

    ALL_ANCESTORS = "all"
    ROOT_ONLY = "root"


@dataclass(frozen=True)
class QuotaBounds:
    """Lower/upper quota of one node, with the ancestors that bind them.

    The binding ancestor is the one whose seats-per-share ratio is extremal
    (largest for the lower bound, smallest for the upper); among equal
    ratios the one nearest the root is reported.
    """

    node: int
    lower: int
    upper: int
    binding_lower_ancestor: int
    binding_upper_ancestor: int


@dataclass(frozen=True)
class QuotaReport:
    """Full quota audit of an allocation against an instance."""

    mode: QuotaMode
    bounds: tuple[QuotaBounds, ...]
    lower_violated: tuple[bool, ...]
    upper_violated: tuple[bool, ...]
    flow_violations: tuple[int, ...]
    lower_violation_count: int
    upper_violation_count: int

    @property
    def ok(self) -> bool:
        return (
            not self.flow_violations
            and self.lower_violation_count == 0
            and self.upper_violation_count == 0
        )


def _quotas(inst: Instance, seats: Sequence[int], mode: QuotaMode):
    """Quota bounds of every non-root node, top down in breadth-first order.

    Yields ``(node, lower, upper, binding_lower, binding_upper)``, the
    fields of :class:`QuotaBounds`.  Ancestor ``a``'s seats-per-share ratio
    is ``seats[a] * rden[a] / rnum[a]``; the largest and smallest ratio
    over a node's ancestors are carried down the tree, so each node costs
    one comparison per bound.  Ties keep the ancestor nearest the root.  In
    root-only mode the root's ratio binds every node.

    ``seats[i]`` is read only when node ``i``'s children are reached, so a
    caller may fill in each node's seats after it is yielded.
    """
    order, _, rnum, rden, _, _, children = _fast_arrays(inst)
    fold = mode is QuotaMode.ALL_ANCESTORS
    v = seats[0]
    # per node: (hi_num, hi_den, hi_node, lo_num, lo_den, lo_node) of its ancestors
    extremes = [(v, 1, 0, v, 1, 0)] * inst.n
    for i in order:
        kids = children[i]
        if not kids:
            continue
        hn, hd, ha, ln, ld, la = extremes[i]
        if fold:
            pn = seats[i] * rden[i]
            pd = rnum[i]
            if pn * hd > hn * pd:
                hn, hd, ha = pn, pd, i
            if pn * ld < ln * pd:
                ln, ld, la = pn, pd, i
        ext = hn, hd, ha, ln, ld, la
        for c in kids:
            extremes[c] = ext
            num = rnum[c]
            den = rden[c]
            yield c, (num * hn) // (den * hd), -((-(num * ln)) // (den * ld)), ha, la


def check_allocation(
    inst: Instance, alloc: Allocation, mode: QuotaMode = QuotaMode.ALL_ANCESTORS
) -> QuotaReport:
    """Audit ``alloc``: flow conservation plus per-node quota compliance.

    Flow breaks (root seats != h, or an internal node's seats != sum of its
    children's) are reported in the result rather than raised, so broken
    allocations can still be inspected.  ``bounds[i]`` holds node ``i``'s
    bounds; the root's collapse to its own seat count.
    """
    n = inst.n
    seats = alloc.seats
    if len(seats) != n:
        raise ValueError(f"allocation has {len(seats)} entries for {n} nodes")
    for i, v in enumerate(seats):
        if not isinstance(v, int) or isinstance(v, bool) or v < 0:
            raise ValueError(f"seat count for node {i} must be a non-negative integer")

    flow = [i for i in range(n) if inst.children[i] and seats[i] != sum(seats[c] for c in inst.children[i])]
    if seats[0] != alloc.h and 0 not in flow:
        flow.insert(0, 0)

    bounds = [QuotaBounds(0, seats[0], seats[0], 0, 0)] * n
    low_flags = [False] * n
    up_flags = [False] * n
    for q in _quotas(inst, seats, mode):
        i = q[0]
        bounds[i] = QuotaBounds(*q)
        low_flags[i] = seats[i] < q[1]
        up_flags[i] = seats[i] > q[2]

    return QuotaReport(
        mode=mode,
        bounds=tuple(bounds),
        lower_violated=tuple(low_flags),
        upper_violated=tuple(up_flags),
        flow_violations=tuple(flow),
        lower_violation_count=sum(low_flags),
        upper_violation_count=sum(up_flags),
    )


def count_violations(
    inst: Instance, seats: Sequence[int], mode: QuotaMode = QuotaMode.ALL_ANCESTORS
) -> tuple[int, int]:
    """Count (lower, upper) quota violations without building a report.

    Semantically identical to :func:`check_allocation`'s flag counts for a
    flow-conserving allocation, but allocation-free: suitable for sweeps
    over many house sizes.
    """
    low = up = 0
    for i, lower, upper, _, _ in _quotas(inst, seats, mode):
        v = seats[i]
        if v < lower:
            low += 1
        if v > upper:
            up += 1
    return low, up


# ---------------------------------------------------------------------------
# JSON formats
#
# Instance files:   {"nodes": [{"id": 0, "parent": null, "weight": "1"}, ...]}
# Allocation files: {"h": 6, "seats": [6, 2, 1, 2, 1, 3, 3]}
#
# Node ids must be dense 0..n-1; the root has parent null and weight "1";
# weights are "p" or "p/q" strings.  Children take the order in which they
# appear in the file.
# ---------------------------------------------------------------------------


def parse_instance_document(obj: object) -> tuple[Instance | None, list[StructuralError]]:
    """Build an Instance from parsed JSON, collecting every error found.

    Returns ``(instance, [])`` on success; the instance is marked valid, so
    :func:`require_valid` does not check it again.  If the document is too
    broken to assemble (bad ids, missing fields), the instance is ``None``
    and the errors say why; otherwise structural errors from
    :func:`validate_instance` are returned alongside ``None``.
    """
    errors: list[StructuralError] = []
    if not isinstance(obj, dict) or not isinstance(obj.get("nodes"), list):
        return None, [StructuralError(NON_TREE, None, 'document must be {"nodes": [...]}')]
    entries = obj["nodes"]
    if not entries:
        return None, [StructuralError(NON_TREE, None, "empty node list")]

    n = len(entries)
    parents: list[int | None] = [None] * n
    weights: list[Fraction] = [Fraction(0)] * n
    children_order: list[list[int]] = [[] for _ in range(n)]
    seen_ids: set[int] = set()

    for pos, entry in enumerate(entries):
        if not isinstance(entry, dict):
            errors.append(StructuralError(NON_TREE, None, f"node entry #{pos} is not an object"))
            continue
        ident = entry.get("id")
        if not isinstance(ident, int) or isinstance(ident, bool) or not 0 <= ident < n:
            errors.append(
                StructuralError(NON_TREE, None, f"node entry #{pos} has bad id {ident!r} (ids must be dense 0..{n - 1})")
            )
            continue
        if ident in seen_ids:
            errors.append(StructuralError(NON_TREE, ident, "duplicate node id"))
            continue
        seen_ids.add(ident)
        parent = entry.get("parent")
        if parent is not None and (not isinstance(parent, int) or isinstance(parent, bool)):
            errors.append(StructuralError(NON_TREE, ident, f"bad parent {parent!r}"))
            continue
        raw_weight = entry.get("weight")
        if not isinstance(raw_weight, str):
            errors.append(
                StructuralError(WEIGHT_OUT_OF_RANGE, ident, 'weight must be a "p" or "p/q" string')
            )
            continue
        try:
            weight = parse_weight(raw_weight)
        except ValueError as exc:
            errors.append(StructuralError(WEIGHT_OUT_OF_RANGE, ident, str(exc)))
            continue
        parents[ident] = parent
        weights[ident] = weight
        if parent is not None and 0 <= parent < n:
            children_order[parent].append(ident)

    if len(seen_ids) != n:
        errors.append(
            StructuralError(NON_TREE, None, f"ids are not dense 0..{n - 1} ({len(seen_ids)} distinct)")
        )
    if errors:
        return None, errors

    inst = Instance(parents, weights, children_order)
    errors = validate_instance(inst)
    if errors:
        return None, errors
    inst._valid = True
    return inst, []


def instance_from_json(text: str) -> Instance:
    """Parse and validate an instance JSON document; raise on any error."""
    inst, errors = parse_instance_document(json.loads(text))
    if inst is None:
        raise InvalidInstanceError(errors)
    return inst


def instance_to_json(inst: Instance) -> str:
    """Serialize to the instance file format (nodes in breadth-first order)."""
    nodes = []
    for i in inst.bfs_order():
        p = inst.parents[i]
        nodes.append({"id": i, "parent": p, "weight": str(inst.weights[i])})
    return json.dumps({"nodes": nodes}, indent=2)


def allocation_from_json(text: str) -> Allocation:
    obj = json.loads(text)
    if not isinstance(obj, dict):
        raise ValueError('allocation document must be {"h": ..., "seats": [...]}')
    h = obj.get("h")
    seats = obj.get("seats")
    if not isinstance(h, int) or isinstance(h, bool) or h < 0:
        raise ValueError('"h" must be a non-negative integer')
    if not isinstance(seats, list) or not all(
        isinstance(v, int) and not isinstance(v, bool) and v >= 0 for v in seats
    ):
        raise ValueError('"seats" must be a list of non-negative integers')
    return Allocation(h, tuple(seats))


def allocation_to_json(alloc: Allocation) -> str:
    return json.dumps({"h": alloc.h, "seats": list(alloc.seats)})
