"""Simplicial TSP instances: groups of mutually-free vertices, unit hops between groups.

Two layouts are exposed and never inferred from each other:

* ``make_equal(g, per_group)``     -- g groups of identical size
* ``make_one_extra(g, per_group)`` -- group 1 carries one extra vertex

Costs are the 0/1 cut semi-metric (0 within a group, 1 across), which is
metric by construction (the tests check every triangle inequality).  The
exact tour optimum is the group count ``g``; ``held_karp_cycle``, a
Held-Karp subset DP over any cost matrix, confirms it on small instances.

Vertex labels are group-contiguous -- group i occupies a consecutive index
range -- and everything downstream (certificate block layouts in particular)
relies on that.

The certificate layers require even g; the instance type itself accepts any
g >= 2 so that LP baselines can run on odd group counts too.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "SimplicialInstance",
    "held_karp_cycle",
    "make_equal",
    "make_one_extra",
]

DP_MAX_VERTICES = 18


@dataclass(frozen=True)
class SimplicialInstance:
    """Vertex groups with 0/1 cut costs; immutable."""

    group_sizes: tuple[int, ...]

    def __post_init__(self):
        sizes = tuple(int(s) for s in self.group_sizes)
        if len(sizes) < 2:
            raise ValueError("need at least 2 groups")
        if any(s < 1 for s in sizes):
            raise ValueError(f"every group needs >= 1 vertex, got {sizes}")
        object.__setattr__(self, "group_sizes", sizes)

    @property
    def g(self) -> int:
        return len(self.group_sizes)

    @property
    def n_total(self) -> int:
        return sum(self.group_sizes)

    def group_labels(self) -> np.ndarray:
        return np.repeat(np.arange(self.g), self.group_sizes)

    def cost_matrix(self) -> np.ndarray:
        lbl = self.group_labels()
        return (lbl[:, None] != lbl[None, :]).astype(float)


def make_equal(g: int, per_group: int) -> SimplicialInstance:
    """g equally sized groups, g * per_group vertices."""
    if g < 2 or g % 2 != 0:
        raise ValueError(f"g must be even and >= 2, got {g}")
    if per_group < 2:
        raise ValueError(f"per_group must be >= 2, got {per_group}")
    return SimplicialInstance((per_group,) * g)


def make_one_extra(g: int, per_group: int) -> SimplicialInstance:
    """Like make_equal but group 1 holds one extra vertex (n_total = g*per_group + 1).

    per_group = 1 is admitted: the 3-vertex instance with groups {1,2},{3} is
    the anchor of the non-monotonicity check.
    """
    if g < 2 or g % 2 != 0:
        raise ValueError(f"g must be even and >= 2, got {g}")
    if per_group < 1:
        raise ValueError(f"per_group must be >= 1, got {per_group}")
    return SimplicialInstance((per_group + 1,) + (per_group,) * (g - 1))


def held_karp_cycle(dist: np.ndarray) -> float:
    """Exact minimum Hamiltonian cycle cost by subset DP, start fixed at vertex 0.

    A state is a set of visited vertices (bit i of the mask stands for
    vertex i + 1) and the vertex k + 1 the path from 0 ends at.  Masks are
    sorted once by popcount and taken one layer at a time, and only two
    layers are kept, vertex-major: ``below[k, r]`` is the cheapest path over
    the layer's mask row r that ends at vertex k + 1.  All masks of a layer
    that end at j + 1 are filled in one array step: their predecessor
    columns are gathered into one contiguous (m, rows) block, the step costs
    ``dist[1:, j + 1]`` are added down its columns and the block is reduced
    over its first axis.  Each entry is the minimum over the same sums a
    mask-by-mask loop takes, so the value does not depend on the order.

    ``dist`` must be a square matrix on 2 to ``DP_MAX_VERTICES`` vertices;
    an entry may be +inf (a forbidden edge) but not NaN or -inf.
    """
    dist = np.asarray(dist, dtype=float)
    if dist.ndim != 2 or dist.shape[0] != dist.shape[1]:
        raise ValueError(f"need a square cost matrix, got shape {dist.shape}")
    if not (dist > -np.inf).all():
        raise ValueError("costs must be numbers or +inf, got NaN or -inf")
    n = dist.shape[0]
    if n > DP_MAX_VERTICES:
        raise ValueError(f"DP oracle capped at {DP_MAX_VERTICES} vertices, got {n}")
    if n < 2:
        raise ValueError(f"a cycle needs at least 2 vertices, got {n}")
    m = n - 1
    masks = np.arange(1 << m, dtype=np.int32)
    popcount = np.zeros(1 << m, dtype=np.int8)
    for j in range(m):
        popcount += (masks >> j) & 1
    order = np.argsort(popcount, kind="stable")
    start = np.searchsorted(popcount[order], np.arange(m + 2))
    # row of each mask within its layer, masks in ascending order; layer 1
    # holds mask 1 << k in row k
    row_of = np.empty(1 << m, dtype=np.int32)
    row_of[order] = np.arange(1 << m) - start[popcount[order]]
    below = np.full((m, m), np.inf)
    below[np.arange(m), np.arange(m)] = dist[0, 1:]
    for layer in range(2, m + 1):
        members = order[start[layer] : start[layer + 1]]
        cost = np.full((m, members.size), np.inf)
        for j in range(m):
            rows = np.flatnonzero((members >> j) & 1)
            paths = np.take(below, row_of[members[rows] ^ (1 << j)], axis=1)
            paths += dist[1:, j + 1, None]
            cost[j, rows] = paths.min(axis=0)
        below = cost
    return float(np.min(below[:, 0] + dist[1:, 0]))
