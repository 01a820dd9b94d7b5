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
import sys
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from itertools import repeat
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
    A number longer than Python converts from a string is refused too.
    """
    m = _WEIGHT_RE.fullmatch(text.strip())
    if m is None:
        raise ValueError(f"not a rational 'p' or 'p/q' string: {text!r}")
    try:
        num = int(m.group(1))
        den = int(m.group(2) or 1)
    except ValueError:
        # the digits match, so only the limit on digits can refuse them
        raise ValueError(f"weight has a number of over {sys.get_int_max_str_digits()} digits") from None
    if den == 0:
        raise ValueError(f"zero denominator in weight: {text!r}")
    return Fraction(num, den)


class Instance:
    """A rooted entitlement tree with dense node ids ``0..n-1``.

    ``parents[0]`` is ``None`` and ``parents[i]`` is the parent id of node
    ``i``.  ``weights[i]`` is node ``i``'s entitlement relative to its
    parent (the root's is 1).  ``children`` keeps each node's children in
    input order.  The four methods ignore that order: their ties go to the
    lowest node id.  It matters where children are taken in turn:
    ``to_full_binary`` peels a wide node's children off in this order,
    ``assign_entitlements`` draws sibling weights in it, and breadth-first
    order (so ``instance_to_json``'s node order) follows it.

    Instances are immutable after construction and safe to share between
    threads.  Construction does not validate; see :func:`validate_instance`.
    """

    __slots__ = ("parents", "weights", "children", "_shares", "_fast", "_order", "_plan")

    def __init__(
        self,
        parents: Sequence[int | None],
        weights: Sequence[Fraction | int | str],
        children: Sequence[Sequence[int]] | None = None,
    ):
        self.parents = tuple(parents)
        ws = tuple(weights)
        if not all(map(isinstance, ws, repeat(Fraction))):
            ws = tuple(
                w if isinstance(w, Fraction) else
                parse_weight(w) if isinstance(w, str) else Fraction(w)
                for w in ws
            )
        self.weights = ws
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
            self.children = tuple(map(tuple, children))
            if len(self.children) != n:
                raise ValueError("children must hold one list per node")
        self._shares: tuple[Fraction, ...] | None = None
        # set by validate_instance once the instance is valid, so it marks validity
        self._fast = None
        self._order: tuple[int, ...] | None = None
        # the methods' per-node split data, built on first use
        self._plan: tuple[list[tuple], list[tuple]] | None = None

    @property
    def n(self) -> int:
        return len(self.parents)

    def bfs_order(self) -> tuple[int, ...]:
        """Node ids in breadth-first order from the root (parents first).

        Raises :class:`InvalidInstanceError` unless the child lists reach
        each node exactly once, rather than walk a cycle or skip a node.
        It is not :func:`validate_instance`'s walk, as it must also order
        the invalid instances that :func:`instance_to_json` writes.
        """
        if self._order is None:
            n = len(self.parents)
            seen = bytearray(n)
            order = [0]
            for i in order:
                kids = self.children[i]
                for c in kids:
                    if type(c) is not int or not 0 < c < n or seen[c]:
                        raise InvalidInstanceError(validate_instance(self))
                    seen[c] = 1
                order.extend(kids)
            if len(order) != n:
                raise InvalidInstanceError(validate_instance(self))
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

    One walk over the child lists checks every rule.  The root has no
    parent and weighs 1; :func:`_node_faults` holds each other node's own
    rules.  A listed child is a plain int in ``1..n-1``, listed once, under
    the node its parent entry names; each group's listed nodes weigh 1 in
    all, summed over the lcm of their denominators; the root reaches all.

    The walk goes breadth first from the root and takes each node's share
    ``rnum/rden`` as its parent's times its weight, so a valid instance
    caches the arrays of :func:`_fast_arrays`.  It queues no group after
    its first fault; then the same walk visits every node in id order and
    reports each fault: parents, child lists, unlisted nodes, unreached
    nodes, weights, sibling sums.
    """
    parents, weights, children = inst.parents, inst.weights, inst.children
    n = len(parents)
    wnum = [w.numerator for w in weights]
    wden = [w.denominator for w in weights]
    rnum = [1] * n
    rden = [1] * n
    gcd = math.gcd
    order = [0]
    # in id order a parent's share may not be known yet, and none is kept
    ones = [1] * n
    for walk, up_num, up_den in ((order, rnum, rden), (range(n), ones, ones)):
        # (section of the report, node or listing node, error)
        faults: list[tuple[int, int, StructuralError]] = []
        if parents[0] is not None:
            faults.append((0, 0, StructuralError(NON_TREE, 0, "root must have no parent")))
        if wnum[0] != 1 or wden[0] != 1:
            faults.append((4, 0, StructuralError(WEIGHT_OUT_OF_RANGE, 0, f"root weight must be 1, got {weights[0]}")))
        seen = bytearray(n)
        for i in walk:
            kids = children[i]
            if not kids:
                continue
            a, b = up_num[i], up_den[i]
            # the sibling weights' running sum t/m, m the lcm of their
            # denominators, over the listed ids that name nodes
            t, m, skipped = 0, 1, 0
            for c in kids:
                if type(c) is not int or not 0 < c < n:
                    faults.append((1, i, StructuralError(NON_TREE, i, f"invalid child id {c!r}")))
                    skipped += 1
                    continue
                num, den = wnum[c], wden[c]
                if seen[c]:
                    faults.append((1, i, StructuralError(NON_TREE, c, "node listed as child more than once")))
                else:
                    seen[c] = 1
                    p = parents[c]
                    # a plain int parent entry equal to i, not c, and a weight in range pass
                    if p != i or type(p) is not int or p == c or not 0 < num <= den:
                        if p != i:
                            faults.append((1, i, StructuralError(NON_TREE, c, "children list disagrees with parent map")))
                        _node_faults(faults, inst, c)
                # the parent's share times the weight, cancelled crosswise as
                # Fraction multiplication does, so both stay in lowest terms
                g1 = gcd(a, den)
                g2 = gcd(num, b)
                rnum[c] = (a // g1) * (num // g2)
                rden[c] = (b // g2) * (den // g1)
                g = gcd(m, den)
                t = t * (den // g) + num * (m // g)
                m = m // g * den
            if t != m and skipped < len(kids):
                faults.append((5, i, StructuralError(CHILDREN_WEIGHTS_NOT_NORMALIZED, i, f"children weights sum to {Fraction(t, m)}")))
            # the breadth-first order grows only while all is well, so no group comes twice
            if not faults:
                order += kids
        if walk is order and not faults and len(order) == n:
            inst._fast = (order, parents, rnum, rden, wnum, wden, children)
            return []

    for i in range(1, n):
        if not seen[i]:
            _node_faults(faults, inst, i)
            if isinstance(parents[i], int):
                faults.append((2, i, StructuralError(NON_TREE, i, "node missing from its parent's child list")))
    # connectivity: the child lists are now the exact inverse of the parent
    # map, so a node reaches the root iff the search from the root finds it
    if all(section > 2 for section, _, _ in faults):
        reach = [0]
        for i in reach:
            reach += children[i]
        reached = set(reach)
        faults += [(3, i, StructuralError(NON_TREE, i, "node does not reach the root (cycle)"))
                   for i in range(1, n) if i not in reached]
    faults.sort(key=lambda fault: fault[:2])
    return [error for _, _, error in faults]


def _node_faults(faults: list, inst: Instance, i: int) -> None:
    """Append node ``i``'s own faults: its parent must be an int (an int subclass
    too, but not a bool) in range and not ``i``; its weight lies in (0, 1]."""
    p = inst.parents[i]
    if p is None:
        faults.append((0, i, StructuralError(NON_TREE, i, "non-root node without a parent")))
    elif not isinstance(p, int) or isinstance(p, bool) or not 0 <= p < inst.n:
        faults.append((0, i, StructuralError(NON_TREE, i, f"parent id {p!r} out of range")))
    elif p == i:
        faults.append((0, i, StructuralError(NON_TREE, i, "node is its own parent")))
    w = inst.weights[i]
    if not 0 < w <= 1:
        faults.append((4, i, StructuralError(WEIGHT_OUT_OF_RANGE, i, f"weight {w} not in (0, 1]")))


def require_valid(inst: Instance) -> Instance:
    """Return ``inst`` if valid, else raise :class:`InvalidInstanceError`.

    Success is remembered on the instance, so later calls return at once;
    failure is not, so an invalid instance raises on every call.
    """
    if inst._fast is None:
        errors = validate_instance(inst)
        if errors:
            raise InvalidInstanceError(errors)
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
    and ``order`` is breadth-first.  :func:`validate_instance` builds them
    on its walk; the first call goes through :func:`require_valid`.
    """
    return require_valid(inst)._fast


def _check_house(h: object) -> None:
    """Raise :class:`ValueError` unless ``h`` is a non-negative int (not a bool)."""
    if not isinstance(h, int) or isinstance(h, bool) or h < 0:
        raise ValueError("house size must be a non-negative integer")


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


def _fold(ext: tuple, i: int, v: int, num: int, den: int) -> tuple:
    """Fold node ``i``'s seats-per-share ratio ``v * den / num`` into
    ``ext``, the ``(hi_num, hi_den, hi_node, lo_num, lo_den, lo_node)``
    extremes over its ancestors, giving its children's; ties keep the
    ancestor nearest the root.  It folds any ratio ``v * den / num``, a
    both-quotas comb holder's included."""
    hn, hd, ha, ln, ld, la = ext
    pn = v * den
    if pn * hd > hn * num:
        hn, hd, ha = pn, num, i
    if pn * ld < ln * num:
        ln, ld, la = pn, num, i
    return hn, hd, ha, ln, ld, la


def _quotas(inst: Instance, seats: Sequence[int], mode: QuotaMode):
    """Quota bounds of every non-root node, top down in breadth-first order.

    Yields ``(node, lower, upper, binding_lower, binding_upper)``, the
    fields of :class:`QuotaBounds`.  Ancestor ``a``'s seats-per-share ratio
    is ``seats[a] * rden[a] / rnum[a]``; the largest and smallest ratio
    over a node's ancestors are carried down the tree by :func:`_fold`, so
    each node costs one comparison per bound.  In root-only mode the
    root's ratio binds every node.

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
        ext = _fold(extremes[i], i, seats[i], rnum[i], rden[i]) if fold else extremes[i]
        hn, hd, ha, ln, ld, la = ext
        for c in kids:
            extremes[c] = ext
            num = rnum[c]
            den = rden[c]
            yield c, (num * hn) // (den * hd), -((-(num * ln)) // (den * ld)), ha, la


def _check_seats(n: int, seats: Sequence[int]) -> None:
    """Raise :class:`ValueError` unless ``seats`` holds ``n`` non-negative ints, not bools."""
    if len(seats) != n:
        raise ValueError(f"allocation has {len(seats)} entries for {n} nodes")
    # plain ints pass in one C-level test; the loop names a bad count, and
    # accepts int subclasses
    if not ({int} >= set(map(type, seats)) and min(seats) >= 0):
        for i, v in enumerate(seats):
            if not isinstance(v, int) or isinstance(v, bool) or v < 0:
                raise ValueError(f"seat count for node {i} must be a non-negative integer")


def _audit(inst: Instance, alloc: Allocation) -> list[int]:
    """The seat checks and flow pass behind :func:`check_allocation` and
    CLI ``check``.

    Raises :class:`ValueError` if ``alloc`` fails :func:`_check_seats`,
    validates the instance, and returns the flow breaks in ascending node
    order (the root first if its seats are not ``h``).  The quota bounds
    are left to the caller, which reads them from :func:`_quotas`.
    """
    seats = alloc.seats
    _check_seats(inst.n, seats)
    at = seats.__getitem__
    children = _fast_arrays(inst)[6]  # validates the instance first
    flow = [i for i, kids in enumerate(children) if kids and seats[i] != sum(map(at, kids))]
    if seats[0] != alloc.h and (not flow or flow[0] != 0):
        flow.insert(0, 0)
    return flow


def check_allocation(
    inst: Instance, alloc: Allocation, mode: QuotaMode | str = QuotaMode.ALL_ANCESTORS
) -> QuotaReport:
    """Audit ``alloc``: flow conservation plus per-node quota compliance.

    Flow breaks (root seats != h, or an internal node's seats != sum of its
    children's) are reported in the result rather than raised, so broken
    allocations can still be inspected.  ``bounds[i]`` holds node ``i``'s
    bounds; the root's collapse to its own seat count.  ``mode`` may be
    given by its value, ``"all"`` or ``"root"``.
    """
    mode = QuotaMode(mode)
    flow = _audit(inst, alloc)
    seats = alloc.seats
    quotas = [(0, seats[0], seats[0], 0, 0)] * inst.n
    for q in _quotas(inst, seats, mode):
        quotas[q[0]] = q
    low_flags = tuple(v < q[1] for v, q in zip(seats, quotas))
    up_flags = tuple(v > q[2] for v, q in zip(seats, quotas))
    return QuotaReport(
        mode=mode,
        bounds=tuple(QuotaBounds(*q) for q in quotas),
        lower_violated=low_flags,
        upper_violated=up_flags,
        flow_violations=tuple(flow),
        lower_violation_count=sum(low_flags),
        upper_violation_count=sum(up_flags),
    )


def count_violations(
    inst: Instance, seats: Sequence[int], mode: QuotaMode | str = QuotaMode.ALL_ANCESTORS
) -> tuple[int, int]:
    """Count (lower, upper) quota violations without building a report.

    Semantically identical to :func:`check_allocation`'s flag counts for a
    flow-conserving allocation; it allocates only one ``n``-entry list of
    per-node extremes, so it suits sweeps over many house sizes.

    The carry of :func:`_quotas` (the reference for the bounds), each
    node's extremes taken from :func:`_fold` as there, but without
    divisions.  Under extreme ancestor ratios ``hn/hd`` and ``ln/ld``, a
    child of share ``num/den`` holding ``s`` seats is below its lower
    quota iff ``(s + 1) * den * hd <= num * hn``, and above its upper
    quota iff ``(s - 1) * den * ld >= num * ln``.  Seats of the wrong
    length raise :class:`ValueError`; their counts are not checked.
    ``mode`` may be given by its value, as in :func:`check_allocation`.
    """
    if len(seats) != inst.n:
        _check_seats(inst.n, seats)  # raises the length error
    order, _, rnum, rden, _, _, children = _fast_arrays(inst)
    fold = QuotaMode(mode) is QuotaMode.ALL_ANCESTORS
    extremes = [(seats[0], 1, 0, seats[0], 1, 0)] * inst.n
    low = up = 0
    for i in order:
        kids = children[i]
        if not kids:
            continue
        hn, hd, _, ln, ld, _ = ext = _fold(extremes[i], i, seats[i], rnum[i], rden[i]) if fold else extremes[i]
        for c in kids:
            extremes[c] = ext
            num = rnum[c]
            den = rden[c]
            s = seats[c]
            # two independent tests: one node can miss both quotas
            if (s + 1) * den * hd <= num * hn:
                low += 1
            if (s - 1) * den * ld >= num * ln:
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

    Returns ``(instance, [])`` on success; the instance is validated, so
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
    seen = bytearray(n)
    # files repeat few weight strings; a failing one is parsed again for
    # each node that has it, so each gets its own error
    parsed: dict[str, Fraction] = {}

    for pos, entry in enumerate(entries):
        if not isinstance(entry, dict):
            errors.append(StructuralError(NON_TREE, None, f"node entry #{pos} is not an object"))
            continue
        ident = entry.get("id")
        # an int subclass passes and a bool does not; the exact type first,
        # as JSON gives only plain ints
        if type(ident) is not int and (isinstance(ident, bool) or not isinstance(ident, int)) or not 0 <= ident < n:
            errors.append(
                StructuralError(NON_TREE, None, f"node entry #{pos} has bad id {ident!r} (ids must be dense 0..{n - 1})")
            )
            continue
        if seen[ident]:
            errors.append(StructuralError(NON_TREE, ident, "duplicate node id"))
            continue
        seen[ident] = 1
        parent = entry.get("parent")
        if parent is not None and type(parent) is not int and (isinstance(parent, bool) or not isinstance(parent, int)):
            errors.append(StructuralError(NON_TREE, ident, f"bad parent {parent!r}"))
            continue
        raw_weight = entry.get("weight")
        # checked before the lookup, which an unhashable value would break
        if not isinstance(raw_weight, str):
            errors.append(
                StructuralError(WEIGHT_OUT_OF_RANGE, ident, 'weight must be a "p" or "p/q" string')
            )
            continue
        weight = parsed.get(raw_weight)
        if weight is None:
            try:
                weight = parsed[raw_weight] = parse_weight(raw_weight)
            except ValueError as exc:
                errors.append(StructuralError(WEIGHT_OUT_OF_RANGE, ident, str(exc)))
                continue
        parents[ident] = parent
        weights[ident] = weight
        if parent is not None and 0 <= parent < n:
            children_order[parent].append(ident)

    distinct = n - seen.count(0)
    if distinct != n:
        errors.append(StructuralError(NON_TREE, None, f"ids are not dense 0..{n - 1} ({distinct} distinct)"))
    if errors:
        return None, errors

    inst = Instance(parents, weights, children_order)
    errors = validate_instance(inst)
    if errors:
        return None, errors
    return inst, []


def instance_from_json(text: str) -> Instance:
    """Parse and validate an instance JSON document; raise on any error."""
    inst, errors = parse_instance_document(json.loads(text))
    if inst is None:
        raise InvalidInstanceError(errors)
    return inst


def _instance_text(inst: Instance, **lists: Sequence[int]) -> str:
    """The instance file's text, nodes in breadth-first order.

    Lays the document out byte for byte as :func:`json.dumps` does with
    an indent of two spaces, without its pure-Python indent encoder.  Each
    keyword's list of plain ints follows the nodes as a top-level key
    (``reduce`` writes ``node_map`` and ``introduced``).
    """
    parents, weights = inst.parents, inst.weights
    nodes = []
    for i in inst.bfs_order():
        p = parents[i]
        if p is None:
            p = "null"
        elif type(p) is not int:
            # an int subclass, or what only an invalid instance holds:
            # json.dumps writes it, shifted to the depth of a node's fields
            p = json.dumps(p, indent="  ").replace("\n", "\n      ")
        w = weights[i]
        # a Fraction's str holds only digits, "-" and "/", which need no escape
        w = '"' + str(w) + '"' if type(w) is Fraction else json.dumps(str(w))
        nodes.append(f'    {{\n      "id": {i},\n      "parent": {p},\n      "weight": {w}\n    }}')
    text = '{\n  "nodes": [\n' + ",\n".join(nodes) + "\n  ]"
    for key, ids in lists.items():
        text += f',\n  "{key}": ' + ("[\n    " + ",\n    ".join(map(str, ids)) + "\n  ]" if ids else "[]")
    return text + "\n}"


def instance_to_json(inst: Instance) -> str:
    """Serialize to the instance file format (nodes in breadth-first order)."""
    return _instance_text(inst)


def allocation_from_json(text: str) -> Allocation:
    obj = json.loads(text)
    if not isinstance(obj, dict):
        raise ValueError('allocation document must be {"h": ..., "seats": [...]}')
    h = obj.get("h")
    seats = obj.get("seats")
    if not isinstance(h, int) or isinstance(h, bool) or h < 0:
        raise ValueError('"h" must be a non-negative integer')
    # json.loads gives a non-negative integer as a plain int and nothing else
    if not isinstance(seats, list) or not (
        {int} >= set(map(type, seats)) and (not seats or min(seats) >= 0)
    ):
        raise ValueError('"seats" must be a list of non-negative integers')
    return Allocation(h, tuple(seats))


def allocation_to_json(alloc: Allocation) -> str:
    return json.dumps({"h": alloc.h, "seats": list(alloc.seats)})
