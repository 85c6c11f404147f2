"""Cycles of the quotient graph and the growth polytope.

A cycle is a closed edge walk whose intermediate target classes are
pairwise distinct, taken up to rotation; loops are length-1 cycles and
parallel edges give distinct cycles.  The normalization nu(q) divides the
translation vector of q by its weight; the growth polytope is the convex
hull of the nu image together with the origin.  Each graph object lists
its cycles, their nu image and its growth polytope once (``_data``); every
later call reads them back.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from types import MappingProxyType
from typing import NamedTuple

from .geometry import Polytope, convex_hull
from .quotient import QuotientGraph, ResourceLimit, closed_walk_vector


@dataclass(frozen=True)
class Cycle:
    edge_indices: tuple   # rotation starting at the minimal class on the cycle
    classes: frozenset    # classes visited
    vector: tuple         # total translation vector
    weight: int

    def nu(self):
        return tuple(Fraction(x, self.weight) for x in self.vector)


def _enumerate(graph: QuotientGraph, max_cycles):
    """All cycles up to rotation.

    Each cycle visits pairwise distinct classes, so it has a unique rotation
    whose start class is minimal; the search emits exactly that rotation by
    only walking to intermediate classes larger than the start.
    """
    cycles = []
    for start in range(graph.num_classes):
        stack = [((), start)]
        while stack:
            path, cur = stack.pop()
            for i, e in graph.out_edges(cur):
                if e.tgt == start:
                    total = [0] * graph.rank
                    weight = 0
                    classes = {start}
                    for j in path + (i,):
                        ej = graph.edges[j]
                        total = [a + b for a, b in zip(total, ej.vector)]
                        weight += ej.weight
                        classes.add(ej.tgt)
                    cycles.append(Cycle(path + (i,), frozenset(classes),
                                        tuple(total), weight))
                    if len(cycles) > max_cycles:
                        raise ResourceLimit(
                            f"cycle enumeration exceeded {max_cycles} cycles")
                elif e.tgt > start:
                    seen = {graph.edges[j].tgt for j in path}
                    if e.tgt not in seen:
                        stack.append((path + (i,), e.tgt))
    cycles.sort(key=lambda c: (len(c.edge_indices), c.edge_indices))
    return cycles


class CycleData(NamedTuple):
    """What a graph's cycles determine, listed once per graph object."""

    cycles: tuple            # by length, then edge indices
    image: MappingProxyType  # nu point -> the cycles attaining it, by weight
    polytope: Polytope


def _data(graph: QuotientGraph, max_cycles) -> CycleData:
    """The graph's CycleData, kept in its ``_cycle_data`` slot after the
    first enumeration within budget.  A graph with more than max_cycles
    cycles raises ResourceLimit, whether its cycles are listed yet or not."""
    data = graph._cycle_data
    if data is None:
        cycles = tuple(_enumerate(graph, max_cycles))
        image = {}
        for c in sorted(cycles, key=lambda c: (c.weight, c.edge_indices)):
            image.setdefault(c.nu(), []).append(c)
        origin = tuple(Fraction(0) for _ in range(graph.rank))
        polytope = convex_hull([*image, origin])
        image = MappingProxyType({v: tuple(r) for v, r in image.items()})
        data = CycleData(cycles, image, polytope)
        object.__setattr__(graph, "_cycle_data", data)
    elif len(data.cycles) > max_cycles:
        raise ResourceLimit(f"cycle enumeration exceeded {max_cycles} cycles")
    return data


def enumerate_cycles(graph: QuotientGraph, max_cycles=1_000_000) -> tuple:
    """All cycles up to rotation, shortest first."""
    return _data(graph, max_cycles).cycles


def nu(graph: QuotientGraph, edge_indices) -> tuple:
    vec = closed_walk_vector(graph, edge_indices)
    w = sum(graph.edges[i].weight for i in edge_indices)
    return tuple(Fraction(x, w) for x in vec)


def nu_image(graph: QuotientGraph,
             max_cycles=1_000_000) -> MappingProxyType:
    """Read-only map nu point -> tuple of cycles attaining it (sorted by
    weight)."""
    return _data(graph, max_cycles).image


def growth_polytope(graph: QuotientGraph, max_cycles=1_000_000) -> Polytope:
    """conv(nu image together with the origin); may be lower-dimensional."""
    return _data(graph, max_cycles).polytope


@dataclass(frozen=True)
class PInitialData:
    """For each nonzero polytope vertex: the qualifying minimal-weight cycle.

    ``witnesses`` maps vertex -> (d_v, Cycle) where the cycle passes through
    the reference class and has nu equal to the vertex; d_v is its weight.
    ``missing`` lists vertices with no such cycle.
    """

    cls: int
    witnesses: dict
    missing: tuple

    @property
    def is_p_initial(self):
        return not self.missing


def p_initial_data(graph: QuotientGraph, cls: int,
                   max_cycles=1_000_000) -> PInitialData:
    _, image, polytope = _data(graph, max_cycles)
    origin = tuple(Fraction(0) for _ in range(graph.rank))
    witnesses, missing = {}, []
    for v in polytope.vertices:
        if v == origin:
            continue
        found = None
        for c in image.get(v, ()):
            if cls in c.classes:
                found = c
                break
        if found is None:
            missing.append(v)
        else:
            witnesses[v] = (found.weight, found)
    return PInitialData(cls, witnesses, tuple(missing))


def p_initial(graph: QuotientGraph, cls: int, max_cycles=1_000_000) -> bool:
    return p_initial_data(graph, cls, max_cycles).is_p_initial
