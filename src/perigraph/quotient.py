"""Vector-labeled quotient graphs of periodic graphs, and metric balls.

A periodic graph is encoded by its finite quotient: classes (vertex orbits)
and directed edges carrying an integer translation vector and a positive
integer weight.  An undirected graph additionally carries a reverse
involution on edges (src/tgt swapped, vector negated, weight equal).
Vertices of the infinite graph are (class, offset) pairs.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from math import prod
from typing import NamedTuple

from .field import hermite


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
        object.__setattr__(self, "_cycle_data", None)  # see cycles._data

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


class Ball(Mapping):
    """Read-only mapping Vertex -> exact distance, returned by ``ball``.

    States are stored as ints: (cls, offset) is
    ``cls + C * sum((offset[i] - origin[i] + bias) * base**i)`` with C the
    number of classes and ``base = 2 * bias + 1``, which is one-to-one on the
    box |offset[i] - origin[i]| < bias.  A lookup packs its key with that
    range check, so a key outside the box, a class out of range or a
    non-Vertex is absent instead of aliased to another state.
    """

    __slots__ = ("_dist", "_classes", "_origin", "_bias", "_base", "_zero")

    def __init__(self, classes, origin, bias):
        self._dist = {}
        self._classes = classes
        self._origin = tuple(origin)
        self._bias = bias
        self._base = 2 * bias + 1
        self._zero = _weave((bias,) * len(self._origin), self._base)

    def _key(self, v):
        """Packed int of a vertex, or None when it lies outside the box."""
        if not isinstance(v, Vertex) or len(v.offset) != len(self._origin):
            return None
        if not (isinstance(v.cls, int) and 0 <= v.cls < self._classes):
            return None
        rel = tuple(a - b for a, b in zip(v.offset, self._origin))
        if not all(-self._bias < r < self._bias for r in rel):
            return None
        return v.cls + self._classes * (self._zero + _weave(rel, self._base))

    def _vertex(self, key):
        q, cls = divmod(key, self._classes)
        off = []
        for b in self._origin:
            q, r = divmod(q, self._base)
            off.append(b + r - self._bias)
        return Vertex(cls, tuple(off))

    def __getitem__(self, v):
        d = self._dist.get(self._key(v))
        if d is None:
            raise KeyError(v)
        return d

    def __contains__(self, v):
        return self._key(v) in self._dist

    def get(self, v, default=None):
        return self._dist.get(self._key(v), default)

    def __iter__(self):
        return map(self._vertex, self._dist)

    def __len__(self):
        return len(self._dist)

    def values(self):
        return self._dist.values()


def _weave(vec, base):
    """sum(vec[i] * base**i)."""
    total = 0
    for x in reversed(vec):
        total = total * base + x
    return total


def _frame(graph: QuotientGraph, x0: Vertex, radius, max_states) -> Ball:
    """Empty Ball whose packing box holds every state a search from x0 can
    reach: a state settled within radius, or among the first max_states, is
    at most min(radius, max_states) edges from x0, and a candidate one edge
    more, so the box of bias (min(radius, max_states) + 1) * max|vector
    entry| + 1 holds them all."""
    span = max((abs(a) for e in graph.edges for a in e.vector), default=0)
    steps = max_states if radius is None else max(0, min(radius, max_states))
    return Ball(graph.num_classes, x0.offset, (steps + 1) * span + 1)


def _shells(graph: QuotientGraph, frame: Ball, x0: Vertex, radius,
            max_states):
    """Yield (d, shell) in increasing d for every nonempty shell: the set of
    states at exact distance d <= radius from x0 (no bound when radius is
    None), packed by ``frame``, the caller's ``_frame(graph, x0, radius,
    max_states)``.  Raises ResourceLimit as soon as more than max_states
    states are settled.

    Shell d is the set of targets of the weight-w edges leaving shell d - w,
    one set comprehension per edge weight w, minus the states settled
    earlier; the next d is the least j + w over the live shells j, so the
    distances between shells cost nothing.  In an undirected graph a state
    reached from shell d - w over an edge of weight w has the reverse edge
    back, so it lies at distance >= d - 2w: only the shells in
    [d - 2 maxw, d) are subtracted and the older ones are dropped.  A
    directed graph keeps the set of every settled state.
    """
    start = frame._key(x0)
    if start is None:
        raise GraphError(f"{x0!r} is not a vertex of the graph")
    C = graph.num_classes
    deltas = {}  # weight -> per class, the packed deltas of its edges
    for e in graph.edges:
        per_class = deltas.get(e.weight)
        if per_class is None:
            per_class = deltas[e.weight] = [[] for _ in range(C)]
        per_class[e.src].append(
            e.tgt - e.src + C * _weave(e.vector, frame._base))
    out = [(w, tuple(map(tuple, per_class)))
           for w, per_class in deltas.items()]
    maxw = max(deltas, default=0)
    keep = 2 * maxw if graph.undirected else maxw
    bound = float("inf") if radius is None else radius
    settled = None if graph.undirected else {start}
    window = {}  # the nonempty shells at distance >= d - keep
    total = 0
    d, shell = 0, {start}
    while True:
        if shell:
            total += len(shell)
            if total > max_states:
                raise ResourceLimit(
                    f"ball expansion exceeded {max_states} states")
            window[d] = shell
            yield d, shell
        reach = [j + w for j in window for w in deltas if j + w > d]
        if not reach:
            return
        d = min(reach)
        if d > bound:
            return
        # d is j + w for a shell j >= d - maxw >= d - keep, and the window
        # is ordered by distance: this loop stops before j, and the loop
        # below finds it
        while (j := next(iter(window))) < d - keep:
            del window[j]
        shell = None
        for w, per_class in out:
            src = window.get(d - w)
            if src:
                part = {k + delta for k in src for delta in per_class[k % C]}
                if shell is None:
                    shell = part
                else:
                    shell |= part
        if settled is None:
            for old in window.values():
                shell -= old
        else:
            shell -= settled
            settled |= shell


def ball(graph: QuotientGraph, x0: Vertex, radius=None, max_states=10_000_000,
         targets=None) -> Ball:
    """Exact distances from x0 as a read-only mapping Vertex -> int.

    Holds every vertex y with d(x0, y) <= radius (no bound when radius is
    None), filled shell by shell from ``_shells``.  When targets are given,
    the search stops after the shell that settles the last target, so the
    result is the complete ball up to the farthest target's distance; a
    target missing from the result is farther than radius or unreachable.
    Raises ResourceLimit when more than max_states states lie within the
    distance searched.
    """
    result = _frame(graph, x0, radius, max_states)
    dist = result._dist
    # a target outside the box keys to None, which is never settled
    want = None if targets is None else {result._key(y) for y in targets}
    for d, shell in _shells(graph, result, x0, radius, max_states):
        for k in shell:
            dist[k] = d
        if want is not None:
            want -= shell
            if not want:
                break
    return result


def growth_sequence(graph: QuotientGraph, x0: Vertex, count: int,
                    max_states=10_000_000):
    """s_0..s_{count-1}: number of vertices at distance exactly i from x0.

    Counts the shells of ``_shells`` without keeping them, so memory
    follows the surface of the ball rather than its volume.  Raises
    ResourceLimit when more than max_states vertices lie within distance
    count - 1, and ValueError when count < 1.
    """
    if count < 1:
        raise ValueError(f"need at least one term, got {count}")
    layers = [0] * count
    frame = _frame(graph, x0, count - 1, max_states)
    for d, shell in _shells(graph, frame, x0, count - 1, max_states):
        layers[d] = len(shell)
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


def reachable_classes(graph: QuotientGraph, cls: int, reverse=False) -> set:
    """Classes reachable from cls in the quotient (that reach cls when
    reverse is set)."""
    adj = [set() for _ in range(graph.num_classes)]
    for e in graph.edges:
        if reverse:
            adj[e.tgt].add(e.src)
        else:
            adj[e.src].add(e.tgt)
    seen = {cls}
    stack = [cls]
    while stack:
        c = stack.pop()
        for t in adj[c]:
            if t not in seen:
                seen.add(t)
                stack.append(t)
    return seen


def quotient_strongly_connected(graph: QuotientGraph) -> bool:
    n = graph.num_classes
    return (len(reachable_classes(graph, 0)) == n
            and len(reachable_classes(graph, 0, reverse=True)) == n)


def lattice_index(vectors, n) -> int:
    """Index of the subgroup of Z^n generated by integer vectors (0 if not
    finite index): |det| of their Hermite form, the product of its
    diagonal."""
    h = hermite(vectors)
    return prod(row[i] for i, row in enumerate(h)) if len(h) == n else 0


def is_strongly_connected(graph: QuotientGraph, max_cycles=1_000_000) -> bool:
    """Strong connectivity of the periodic graph itself.

    Requires: strongly connected quotient, cycle vectors generating Z^rank
    as a group, and the origin interior to the growth polytope (equivalently,
    to the convex hull of the cycle vectors, which positively span the same
    cone).  The quotient is checked before any cycle is listed.
    """
    if not quotient_strongly_connected(graph):
        return False
    from .cycles import enumerate_cycles, growth_polytope  # cycles imports this module
    from .geometry import origin_interior
    vectors = sorted({c.vector for c in enumerate_cycles(graph, max_cycles)})
    return (lattice_index(vectors, graph.rank) == 1
            and origin_interior(growth_polytope(graph, max_cycles)))
