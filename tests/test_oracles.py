"""Differential oracles: the ball search against networkx on finite tori.

The torus quotient Z^n / kZ^n of a fixture is a finite graph on (class,
offset mod k).  Every fixture vector has entries in {-1, 0, 1} and every
weight is at least 1, so a walk of weight r < k/2 ends at an offset with
entries below k/2.  Two lifts of one torus vertex differ by k in some
entry, hence at most one of them lies within distance r of the start, and
torus distances below k/2 equal the distances in the periodic graph.
"""

import itertools
from dataclasses import replace

import pytest

from perigraph import load_net
from perigraph.invariants import edge_count_ball, support_distance
from perigraph.quotient import Vertex, ball, distance, growth_sequence

nx = pytest.importorskip("networkx")

# fixture name -> torus size k
TORI = {"z2": 13, "wakatsuki": 13, "dia": 9}
SUPPORT_RADIUS = 2


def reweighted(graph):
    """The fixture with weights 1, 2, 3 spread over its reverse pairs (all
    fixture weights are 1, which would hide a search that ignores them)."""
    return replace(graph, edges=tuple(
        replace(e, weight=1 + min(i, e.reverse) % 3)
        for i, e in enumerate(graph.edges)))


def directed(graph):
    """The fixture as a directed net: both edges of each reverse pair are
    kept, weighing 1 one way and 3 the other (a zero-vector loop, its own
    reverse, weighs 1), so no edge has a reverse of equal weight."""
    return replace(graph, undirected=False, edges=tuple(
        replace(e, weight=1 if i <= e.reverse else 3, reverse=None)
        for i, e in enumerate(graph.edges)))


def _add(g, u, v, w):
    if not g.has_edge(u, v) or g[u][v]["weight"] > w:
        g.add_edge(u, v, weight=w)


def _wrap(k, v):
    return v.cls, tuple(a % k for a in v.offset)


def _moves(graph, k):
    """Yield (torus vertex, quotient edge, torus successor)."""
    for off in itertools.product(range(k), repeat=graph.rank):
        for c in range(graph.num_classes):
            for _, e in graph.out_edges(c):
                nxt = tuple((a + b) % k for a, b in zip(off, e.vector))
                yield (c, off), e, (e.tgt, nxt)


def torus(graph, k, unit=False):
    g = nx.DiGraph()
    for u, e, v in _moves(graph, k):
        _add(g, u, v, 1 if unit else e.weight)
    return g


def support_torus(graph, k):
    """Torus of the (vertex, class-support mask) product graph."""
    g = nx.DiGraph()
    for mask in range(1, 1 << graph.num_classes):
        for u, e, v in _moves(graph, k):
            _add(g, (u, mask), (v, mask | 1 << e.tgt), e.weight)
    return g


def starts(graph, offset=None):
    offset = offset or (0,) * graph.rank
    return [Vertex(c, offset) for c in range(graph.num_classes)]


VARIANTS = {"w1": lambda graph: graph, "w3": reweighted, "directed": directed}


@pytest.fixture(scope="module",
                params=[(name, v) for name in sorted(TORI) for v in VARIANTS],
                ids=lambda p: f"{p[0]}-{p[1]}")
def case(request):
    name, variant = request.param
    return VARIANTS[variant](load_net(name)), TORI[name]


def test_ball_and_growth_match_dijkstra(case):
    graph, k = case
    radius = (k - 1) // 2
    g = torus(graph, k)
    far = (10**12, -10**12, 7)[:graph.rank]
    for x0 in starts(graph) + starts(graph, far):
        got = ball(graph, x0, radius)
        want = nx.single_source_dijkstra_path_length(
            g, _wrap(k, x0), cutoff=radius)
        wrapped = {_wrap(k, y): d for y, d in got.items()}
        assert len(wrapped) == len(got)
        assert wrapped == want
        layers = [0] * (radius + 1)
        for d in want.values():
            layers[d] += 1
        assert growth_sequence(graph, x0, radius + 1) == layers


def test_edge_count_ball_matches_ego_graph(case):
    graph, k = case
    g = torus(graph, k, unit=True)
    for x0 in starts(graph):
        for edges in range((k - 1) // 2 + 1):
            got = {_wrap(k, y) for y in edge_count_ball(graph, x0, edges)}
            assert got == set(nx.ego_graph(g, _wrap(k, x0), radius=edges))


def test_distance_matches_ball(case):
    graph, k = case
    radius = (k - 1) // 2
    shift = tuple(range(2, 2 + graph.rank))
    for x0 in starts(graph):
        x = Vertex(x0.cls, shift)
        dist = ball(graph, x0, radius)
        for y, d in dist.items():
            y_shifted = Vertex(y.cls, tuple(a + b for a, b in
                                            zip(y.offset, shift)))
            assert distance(graph, x, y_shifted, radius) == d
        far = Vertex(x0.cls, (radius + 1,) + (0,) * (graph.rank - 1))
        assert far not in dist
        assert distance(graph, x0, far, radius) is None


def test_support_distance_matches_product_dijkstra(case):
    graph, k = case
    g = support_torus(graph, k)
    full = (1 << graph.num_classes) - 1
    for x0 in starts(graph):
        targets = list(ball(graph, x0, SUPPORT_RADIUS))
        got = support_distance(graph, x0, targets)
        want = nx.single_source_dijkstra_path_length(
            g, (_wrap(k, x0), 1 << x0.cls))
        for y in targets:
            assert got[y] == want[(_wrap(k, y), full)]
            assert got[y] < k / 2
