"""Seeded random instance generation for the two experimental tree families.

Two shapes are supported: perfect binary trees, and "4-ary" trees built
level by level where, on every level except the last, the nodes at even
positions (0-based, left to right) get four children each and the rest
stay leaves.  Node ids are assigned breadth-first, left to right, so the
per-level counts run 1, 4, 8, 16, 32, ... and the totals for heights 3..6
are 29, 61, 125, 253 (binary: 15, 31, 63, 127).

Entitlements are drawn by giving every child an integer weight uniform in
``[1, max_weight]`` and normalizing within each sibling group, so weights
are exact rationals with small denominators and the entitlement ratio
between siblings never exceeds ``1:max_weight``.

Reproducibility is a hard requirement, so the randomness source is pinned:
:class:`SplitMix64`, a 64-bit generator with published reference output,
rather than anything platform- or version-dependent.  The same seed gives
bit-identical instances on every platform, and the known-answer vectors in
the class docstring are asserted by the test suite.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from functools import cache

from .core import Instance, _Record

Seed = int
"""Seeds are 64-bit unsigned integers; larger ints are reduced mod 2**64."""

_MASK = (1 << 64) - 1


class SplitMix64:
    """The splitmix64 generator (Steele, Lea & Flood's 64-bit mixer).

    Known-answer vectors, seed 0:

    >>> g = SplitMix64(0)
    >>> [hex(g.next_u64()) for _ in range(3)]
    ['0xe220a8397b1dcdaf', '0x6e789e6aa1b965f4', '0x6c45d188009454f']

    Chosen because it is trivially portable (one addition, two xor-shift
    multiplies), has a full 2**64 period, and its reference output is
    published, so any reimplementation in another language can be checked
    against the same three numbers.
    """

    __slots__ = ("_state",)

    def __init__(self, seed: Seed):
        self._state = seed & _MASK

    def next_u64(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & _MASK
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        return z ^ (z >> 31)

    def randint(self, lo: int, hi: int) -> int:
        """Uniform integer in [lo, hi], both ends inclusive.

        Uses rejection sampling on the top of the 64-bit range, so every
        value is exactly equally likely (no modulo bias).  One draw covers
        at most 2**64 values, so a wider range raises :class:`ValueError`.
        """
        if lo > hi:
            raise ValueError(f"empty range [{lo}, {hi}]")
        span = hi - lo + 1
        if span > 1 << 64:
            raise ValueError(f"range [{lo}, {hi}] holds more than 2**64 values")
        limit = (1 << 64) - ((1 << 64) % span)
        while True:
            x = self.next_u64()
            if x < limit:
                return lo + (x % span)


class UnsupportedHeight(ValueError):
    """Tree height outside the supported 1..12 range."""


class TreeKind(Enum):
    PERFECT_BINARY = "binary"
    FULL_4ARY = "4ary"


class TreeFamily(_Record):
    """A tree shape: the construction rule (a :class:`TreeKind` or its value) plus the height."""

    kind: TreeKind
    height: int

    def __post_init__(self):
        object.__setattr__(self, "kind", TreeKind(self.kind))
        if not isinstance(self.height, int) or isinstance(self.height, bool):
            raise UnsupportedHeight(f"height must be an integer, got {self.height!r}")
        if self.height < 1:
            raise UnsupportedHeight(f"height must be at least 1, got {self.height}")


class TreeSkeleton(_Record):
    """Tree structure without entitlements: parent links and child lists."""

    family: TreeFamily
    parents: tuple[int | None, ...]
    children: tuple[tuple[int, ...], ...]

    @property
    def n(self) -> int:
        return len(self.parents)


@cache
def build_tree(family: TreeFamily) -> TreeSkeleton:
    """Construct the family's tree shape with breadth-first node ids.

    Each family's shape is built once per process (24 families are valid),
    and every call returns that one immutable skeleton.
    """
    if not 1 <= family.height <= 12:
        raise UnsupportedHeight(f"height must be in 1..12, got {family.height}")
    parents: list[int | None] = [None]
    if family.kind is TreeKind.PERFECT_BINARY:
        n = 2 ** (family.height + 1) - 1
        parents.extend((i - 1) // 2 for i in range(1, n))
    else:
        level = [0]
        next_id = 1
        for _ in range(family.height):
            new_level = []
            for pos, node in enumerate(level):
                if pos % 2 == 0:
                    for _ in range(4):
                        parents.append(node)
                        new_level.append(next_id)
                        next_id += 1
            level = new_level
    n = len(parents)
    kids: list[list[int]] = [[] for _ in range(n)]
    for i in range(1, n):
        kids[parents[i]].append(i)  # type: ignore[index]
    return TreeSkeleton(family, tuple(parents), tuple(tuple(k) for k in kids))


def assign_entitlements(skeleton: TreeSkeleton, seed: Seed, max_weight: int = 10) -> Instance:
    """Draw entitlements onto a skeleton, deterministically in the seed.

    Every child gets an integer weight uniform in ``[1, max_weight]``;
    sibling weights are normalized to exact rationals summing to 1.  Draws
    happen in breadth-first node order and child order, so the instance is
    a pure function of (skeleton, seed, max_weight).  A ``max_weight`` not
    an int of at least 1 (a bool included) raises :class:`ValueError`.
    """
    if not isinstance(max_weight, int) or isinstance(max_weight, bool) or max_weight < 1:
        raise ValueError(f"max_weight must be an integer of at least 1, got {max_weight!r}")
    rng = SplitMix64(seed)
    n = skeleton.n
    weights: list[Fraction] = [Fraction(1)] * n
    order = [0]
    for i in order:
        kids = skeleton.children[i]
        if not kids:
            continue
        order += kids
        draws = [rng.randint(1, max_weight) for _ in kids]
        total = sum(draws)
        for c, d in zip(kids, draws):
            weights[c] = Fraction(d, total)
    return Instance(skeleton.parents, weights, skeleton.children)


def random_instance(family: TreeFamily, seed: Seed, max_weight: int = 10) -> Instance:
    """Build the family's tree and draw entitlements in one go."""
    return assign_entitlements(build_tree(family), seed, max_weight)
