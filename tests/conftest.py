"""Shared fixtures: small hand-built trees and instance strategies.

The four fixture trees are the smallest shapes that exercise every
interesting behaviour: a symmetric two-level tree where quotas coincide,
a flat one-level tree, a lopsided 8/9 nesting where the parent-relative
quota check famously fails, and a three-level variant of the same shape
where the upper-compliant method trades away lower quota instead.
"""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import HealthCheck, settings, strategies as st

from apportree import Instance, QuotaMode, SplitMix64, relative_entitlements

settings.register_profile(
    "repo",
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("repo")


def make_sym7() -> Instance:
    """Seven nodes, every split 1/2 vs 1/2; leaves are nodes 1..4."""
    half = Fraction(1, 2)
    return Instance(
        parents=[None, 5, 5, 6, 6, 0, 0],
        weights=[Fraction(1), half, half, half, half, half, half],
    )


def make_flat5() -> Instance:
    """A root with four leaf children of unequal weight."""
    return Instance(
        parents=[None, 0, 0, 0, 0],
        weights=[Fraction(1), Fraction(2, 5), Fraction(3, 10), Fraction(3, 20), Fraction(3, 20)],
    )


def make_nested5() -> Instance:
    """Two nested 8/9 vs 1/9 splits; node 3 holds 64/81 of the whole."""
    big, small = Fraction(8, 9), Fraction(1, 9)
    return Instance(
        parents=[None, 0, 0, 1, 1],
        weights=[Fraction(1), big, small, big, small],
    )


def make_deep7() -> Instance:
    """Three levels of lopsided splits; node 5 holds 32/45 of the whole."""
    return Instance(
        parents=[None, 0, 0, 1, 1, 3, 3],
        weights=[
            Fraction(1),
            Fraction(8, 9),
            Fraction(1, 9),
            Fraction(9, 10),
            Fraction(1, 10),
            Fraction(8, 9),
            Fraction(1, 9),
        ],
    )


def make_single() -> Instance:
    """Just a root."""
    return Instance(parents=[None], weights=[Fraction(1)])


@pytest.fixture
def sym7() -> Instance:
    return make_sym7()


@pytest.fixture
def flat5() -> Instance:
    return make_flat5()


@pytest.fixture
def nested5() -> Instance:
    return make_nested5()


@pytest.fixture
def deep7() -> Instance:
    return make_deep7()


@pytest.fixture
def single() -> Instance:
    return make_single()


def ancestors_of(inst: Instance, i: int) -> list[int]:
    """Ancestors of ``i`` from its parent up to the root.

    The root is its own only ancestor: ``ancestors_of(inst, 0) == [0]``.
    """
    if i == 0:
        return [0]
    out = []
    p = inst.parents[i]
    while p is not None:
        out.append(p)
        p = inst.parents[p]
    return out


def definitional_bounds(
    inst: Instance,
    seats: tuple[int, ...],
    node: int,
    mode: QuotaMode = QuotaMode.ALL_ANCESTORS,
) -> tuple[int, int, int, int]:
    """Quota bounds and binding ancestors straight from the definition.

    Returns ``(lower, upper, binding_lower, binding_upper)``.  Lower bound:
    the largest floor of (R_node / R_a) * seats[a] over the ancestors a in
    play; upper bound: the smallest ceiling of the same quantity.  The
    binding ancestors are those with the largest and the smallest
    seats-per-share ratio seats[a] / R_a, the one nearest the root among
    equal ratios.  Everything stays a Fraction until the final floor/ceil.
    """
    import math

    if node == 0:
        return seats[0], seats[0], 0, 0
    shares = relative_entitlements(inst)
    if mode is QuotaMode.ROOT_ONLY:
        ancestors = [0]
    else:
        ancestors = ancestors_of(inst, node)
    houses = [Fraction(seats[a]) / shares[a] for a in ancestors]
    lower = max(math.floor(shares[node] * x) for x in houses)
    upper = min(math.ceil(shares[node] * x) for x in houses)
    # max and min keep the first of equal keys, so scan from the root down
    ratio = dict(zip(ancestors, houses))
    top_down = ancestors[::-1]
    return lower, upper, max(top_down, key=ratio.get), min(top_down, key=ratio.get)


@st.composite
def irregular_instances(draw, max_nodes: int = 12, max_weight: int = 9) -> Instance:
    """Arbitrary-shape valid instances: chains, stars, lopsided trees.

    Each new node picks any earlier node as its parent, so the shape space
    covers everything the regular generator families do not.  Weights are
    random positive integers normalized within each sibling group.
    """
    n = draw(st.integers(min_value=2, max_value=max_nodes))
    parents: list[int | None] = [None]
    for i in range(1, n):
        parents.append(draw(st.integers(min_value=0, max_value=i - 1)))
    raw = [draw(st.integers(min_value=1, max_value=max_weight)) for _ in range(n)]
    group_total = [0] * n
    for i in range(1, n):
        group_total[parents[i]] += raw[i]
    weights = [Fraction(1)]
    for i in range(1, n):
        weights.append(Fraction(raw[i], group_total[parents[i]]))
    return Instance(parents=parents, weights=weights)


def flat_instance(shares: list[Fraction]) -> Instance:
    return Instance([None] + [0] * len(shares), [Fraction(1)] + list(shares))


def reversed_children(inst: Instance) -> Instance:
    """The same tree with every child list in reverse order."""
    return Instance(inst.parents, inst.weights, [kids[::-1] for kids in inst.children])


def caterpillar(seed: int, spine: int) -> Instance:
    """A spine of ``spine`` two-child splits, each with one leaf hanging off.

    Which child continues the spine and the integer sibling weights in
    [1, 10] come from SplitMix64, so the depth is exactly ``spine``.
    """
    rng = SplitMix64(seed)
    parents: list[int | None] = [None]
    weights = [Fraction(1)]
    tip = 0
    for _ in range(spine):
        a, b = rng.randint(1, 10), rng.randint(1, 10)
        first = len(parents)
        parents += [tip, tip]
        weights += [Fraction(a, a + b), Fraction(b, a + b)]
        tip = first + rng.randint(0, 1)
    return Instance(parents, weights)


def heavy_spine(levels: int) -> Instance:
    """A spine of two-child nodes, weights 9999/10000 and 1/10000, so each
    level multiplies the caps denominator by 10**4."""
    parents: list[int | None] = [None]
    weights = [Fraction(1)]
    for _ in range(levels):
        tip = len(parents) - 2 if len(parents) > 1 else 0
        parents += [tip, tip]
        weights += [Fraction(9999, 10000), Fraction(1, 10000)]
    return Instance(parents, weights)


@st.composite
def share_lists(draw, max_parties: int = 6, max_weight: int = 9):
    n = draw(st.integers(min_value=2, max_value=max_parties))
    raw = [draw(st.integers(min_value=1, max_value=max_weight)) for _ in range(n)]
    total = sum(raw)
    return [Fraction(r, total) for r in raw]
