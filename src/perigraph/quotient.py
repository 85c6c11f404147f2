"""Vector-labeled quotient graphs of periodic graphs, and metric balls.

A periodic graph is encoded by its finite quotient: classes (vertex orbits)
and directed edges carrying an integer translation vector and a positive
integer weight.  An undirected graph additionally carries a reverse
involution on edges (src/tgt swapped, vector negated, weight equal).
Vertices of the infinite graph are (class, offset) pairs.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from math import gcd
from typing import NamedTuple


class Vertex(NamedTuple):
    cls: int
    offset: tuple


@dataclass(frozen=True)
class EdgeRecord:
    src: int
    tgt: int
    vector: tuple
    weight: int = 1
    reverse: int | None = None  # index of the reverse edge when undirected


class GraphError(ValueError):
    pass


class ResourceLimit(RuntimeError):
    """Raised when a search exceeds its configured state budget."""


@dataclass(frozen=True)
class QuotientGraph:
    rank: int
    class_names: tuple
    edges: tuple
    undirected: bool = False
    realization: tuple | None = None  # per-class coordinate tuples
    name: str = ""

    def __post_init__(self):
        object.__setattr__(self, "_out", None)

    @property
    def num_classes(self):
        return len(self.class_names)

    def out_edges(self, cls):
        if self._out is None:
            out = [[] for _ in self.class_names]
            for i, e in enumerate(self.edges):
                out[e.src].append((i, e))
            object.__setattr__(self, "_out", tuple(tuple(x) for x in out))
        return self._out[cls]

    def class_index(self, name):
        return self.class_names.index(name)

    def vertex(self, name, offset=None):
        return Vertex(self.class_index(name), tuple(offset or (0,) * self.rank))

    def position(self, v: Vertex):
        if self.realization is None:
            raise GraphError("graph has no realization")
        coords = self.realization[v.cls]
        return tuple(c + o for c, o in zip(coords, v.offset))


def validate(graph: QuotientGraph):
    """Raise GraphError on any structural inconsistency; return the graph."""
    n = graph.rank
    if n < 1:
        raise GraphError("rank must be at least 1")
    if not graph.class_names:
        raise GraphError("graph needs at least one class")
    for i, e in enumerate(graph.edges):
        if not (0 <= e.src < graph.num_classes and 0 <= e.tgt < graph.num_classes):
            raise GraphError(f"edge {i}: class index out of range")
        if len(e.vector) != n:
            raise GraphError(f"edge {i}: vector has wrong length")
        if not all(isinstance(x, int) for x in e.vector):
            raise GraphError(f"edge {i}: vector must be integral")
        if not (isinstance(e.weight, int) and e.weight >= 1):
            raise GraphError(f"edge {i}: weight must be a positive integer")
    if graph.undirected:
        for i, e in enumerate(graph.edges):
            if e.reverse is None or not (0 <= e.reverse < len(graph.edges)):
                raise GraphError(f"edge {i}: missing reverse pairing")
            r = graph.edges[e.reverse]
            if r.reverse != i:
                raise GraphError(f"edge {i}: reverse pairing is not an involution")
            if (r.src, r.tgt) != (e.tgt, e.src):
                raise GraphError(f"edge {i}: reverse endpoints do not match")
            if r.vector != tuple(-x for x in e.vector):
                raise GraphError(f"edge {i}: reverse vector is not negated")
            if r.weight != e.weight:
                raise GraphError(f"edge {i}: reverse weight differs")
    if graph.realization is not None:
        if len(graph.realization) != graph.num_classes:
            raise GraphError("realization must give coordinates for every class")
        for coords in graph.realization:
            if len(coords) != n:
                raise GraphError("realization coordinates have wrong length")
    return graph


@dataclass(frozen=True)
class Walk:
    """A walk in the periodic graph: start vertex plus quotient edge indices."""

    graph: QuotientGraph
    start: Vertex
    edge_indices: tuple

    def __post_init__(self):
        cls = self.start.cls
        for i in self.edge_indices:
            e = self.graph.edges[i]
            if e.src != cls:
                raise GraphError("walk edges are not consecutive")
            cls = e.tgt

    @property
    def weight(self):
        return sum(self.graph.edges[i].weight for i in self.edge_indices)

    def end(self) -> Vertex:
        off = list(self.start.offset)
        cls = self.start.cls
        for i in self.edge_indices:
            e = self.graph.edges[i]
            off = [a + b for a, b in zip(off, e.vector)]
            cls = e.tgt
        return Vertex(cls, tuple(off))

    def class_support(self):
        supp = {self.start.cls}
        for i in self.edge_indices:
            supp.add(self.graph.edges[i].tgt)
        return frozenset(supp)


def closed_walk_vector(graph: QuotientGraph, edge_indices) -> tuple:
    """Total translation vector of a closed walk given by edge indices."""
    cls = graph.edges[edge_indices[0]].src
    vec = [0] * graph.rank
    cur = cls
    for i in edge_indices:
        e = graph.edges[i]
        if e.src != cur:
            raise GraphError("edges are not consecutive")
        vec = [a + b for a, b in zip(vec, e.vector)]
        cur = e.tgt
    if cur != cls:
        raise GraphError("walk is not closed")
    return tuple(vec)


def ball(graph: QuotientGraph, x0: Vertex, radius=None, max_states=10_000_000,
         targets=None):
    """Exact distances from x0 as a dict Vertex -> int.

    Settles every vertex y with d(x0, y) <= radius (no bound when radius is
    None).  When targets are given, the search also stops as soon as every
    target is settled; a target missing from the result is farther than
    radius or unreachable.  Raises ResourceLimit once more than max_states
    states have been discovered.
    """
    bound = float("inf") if radius is None else radius
    want = None if targets is None else set(targets)
    dist = {x0: 0}
    heap = [(0, x0.cls, x0.offset)]
    settled = {}
    while heap:
        d, cls, off = heapq.heappop(heap)
        v = Vertex(cls, off)
        if v in settled:
            continue
        settled[v] = d
        if want is not None:
            want.discard(v)
            if not want:
                break
        for _, e in graph.out_edges(cls):
            nd = d + e.weight
            if nd > bound:
                continue
            w = Vertex(e.tgt, tuple(a + b for a, b in zip(off, e.vector)))
            if dist.get(w, nd + 1) > nd:
                dist[w] = nd
                heapq.heappush(heap, (nd, w.cls, w.offset))
                if len(dist) > max_states:
                    raise ResourceLimit(
                        f"ball expansion exceeded {max_states} states")
    return settled


def growth_sequence(graph: QuotientGraph, x0: Vertex, count: int,
                    max_states=10_000_000):
    """s_0..s_{count-1}: number of vertices at distance exactly i from x0."""
    layers = [0] * count
    for d in ball(graph, x0, count - 1, max_states=max_states).values():
        layers[d] += 1
    return layers


def cumulative(seq):
    out, total = [], 0
    for s in seq:
        total += s
        out.append(total)
    return out


def distance(graph: QuotientGraph, x: Vertex, y: Vertex, bound: int,
             max_states=10_000_000):
    """d(x, y) if it is <= bound, else None."""
    return ball(graph, x, bound, max_states=max_states, targets=[y]).get(y)


def quotient_strongly_connected(graph: QuotientGraph) -> bool:
    n = graph.num_classes
    fwd = [set() for _ in range(n)]
    bwd = [set() for _ in range(n)]
    for e in graph.edges:
        fwd[e.src].add(e.tgt)
        bwd[e.tgt].add(e.src)

    def reach(adj, start):
        seen = {start}
        stack = [start]
        while stack:
            c = stack.pop()
            for t in adj[c]:
                if t not in seen:
                    seen.add(t)
                    stack.append(t)
        return seen

    return len(reach(fwd, 0)) == n and len(reach(bwd, 0)) == n


def lattice_index(vectors, n) -> int:
    """Index of the subgroup of Z^n generated by integer vectors (0 if not
    finite index)."""
    rows = [list(v) for v in vectors]
    rank = 0
    for c in range(n):
        # integer elimination by gcd steps in column c
        piv = None
        for i in range(rank, len(rows)):
            if rows[i][c] != 0:
                piv = i
                break
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        for i in range(rank + 1, len(rows)):
            while rows[i][c] != 0:
                q = rows[rank][c] // rows[i][c] if rows[i][c] != 0 else 0
                rows[rank] = [a - q * b for a, b in zip(rows[rank], rows[i])]
                rows[rank], rows[i] = rows[i], rows[rank]
            # now rows[i][c] == 0
        rank += 1
        if rank == n:
            break
    if rank < n:
        return 0
    d = 1
    for i in range(n):
        d *= rows[i][i]
    return abs(d)


def is_strongly_connected(graph: QuotientGraph, max_cycles=1_000_000,
                          cycles=None, polytope=None) -> bool:
    """Strong connectivity of the periodic graph itself.

    Requires: strongly connected quotient, cycle vectors generating Z^rank
    as a group, and the origin interior to the growth polytope (equivalently,
    to the convex hull of the cycle vectors, which positively span the same
    cone).  ``cycles`` and ``polytope`` may be passed in when already known.
    """
    if not quotient_strongly_connected(graph):
        return False
    from .cycles import enumerate_cycles, growth_polytope  # cycles imports this module
    from .geometry import LowerDimensionalHull, origin_interior
    if cycles is None:
        cycles = enumerate_cycles(graph, max_cycles=max_cycles)
    if lattice_index(sorted({c.vector for c in cycles}), graph.rank) != 1:
        return False
    if polytope is None:
        polytope = growth_polytope(graph, cycles=cycles)
    if isinstance(polytope, LowerDimensionalHull):
        return False
    return origin_interior(polytope)
