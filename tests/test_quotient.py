import time
from collections.abc import Mapping
from fractions import Fraction as F

import pytest

from perigraph.quotient import (EdgeRecord, GraphError, QuotientGraph,
                                ResourceLimit, Vertex, _frame, _shells, ball,
                                closed_walk_vector, cumulative, distance,
                                growth_sequence, is_strongly_connected,
                                lattice_index, quotient_strongly_connected,
                                validate)


def loop_graph(vectors, rank, weights=None):
    """Single-class undirected graph with loops for each vector + reverse."""
    weights = weights or [1] * len(vectors)
    edges = []
    for vec, w in zip(vectors, weights):
        i = len(edges)
        neg = tuple(-x for x in vec)
        if vec == neg:
            edges.append(EdgeRecord(0, 0, vec, w, i))
        else:
            edges.append(EdgeRecord(0, 0, vec, w, i + 1))
            edges.append(EdgeRecord(0, 0, neg, w, i))
    return validate(QuotientGraph(rank, ("o",), tuple(edges), undirected=True,
                                  realization=((F(0),) * rank,)))


def test_validate_rejects_bad_edges():
    with pytest.raises(GraphError):
        validate(QuotientGraph(2, ("a",), (EdgeRecord(0, 1, (0, 0), 1),)))
    with pytest.raises(GraphError):
        validate(QuotientGraph(2, ("a",), (EdgeRecord(0, 0, (0,), 1),)))
    with pytest.raises(GraphError):
        validate(QuotientGraph(2, ("a",), (EdgeRecord(0, 0, (0, 0), 0),)))
    with pytest.raises(GraphError):  # broken involution
        validate(QuotientGraph(
            2, ("a",), (EdgeRecord(0, 0, (1, 0), 1, 0),), undirected=True))


def test_validate_involution(wakatsuki):
    validate(wakatsuki)  # parses + validates
    assert len(wakatsuki.edges) == 10
    for i, e in enumerate(wakatsuki.edges):
        r = wakatsuki.edges[e.reverse]
        assert r.reverse == i
        assert r.vector == tuple(-x for x in e.vector)


def test_ball_and_growth_z2(z2):
    o = z2.vertex("o")
    s = growth_sequence(z2, o, 10)
    assert s == [1] + [4 * i for i in range(1, 10)]
    assert cumulative(s)[:4] == [1, 5, 13, 25]
    d = ball(z2, o, 3)
    assert d[Vertex(0, (1, 2))] == 3
    assert d[Vertex(0, (0, 0))] == 0
    assert Vertex(0, (4, 0)) not in d


def test_ball_is_a_checked_read_only_mapping(z2):
    b = ball(z2, z2.vertex("o"), 5)
    assert isinstance(b, Mapping)
    # unchecked packing would alias (13, 0) to (-2, 1), which is in the ball
    assert b[Vertex(0, (-2, 1))] == 3
    far = Vertex(0, (13, 0))
    assert far not in b and b.get(far) is None
    with pytest.raises(KeyError):
        b[far]
    for key in ((0, (0, 0)), "o", None, Vertex(1, (0, 0)),
                Vertex(-1, (0, 0)), Vertex(0, (0,))):
        assert key not in b and b.get(key, "absent") == "absent"
    plain = dict(b)
    assert len(plain) == len(b) == 61  # 2r^2 + 2r + 1 points of |.|_1 <= 5
    assert plain == b and list(b.values()) == list(plain.values())
    assert all(d == abs(v.offset[0]) + abs(v.offset[1])
               for v, d in plain.items())
    with pytest.raises(TypeError):
        b[far] = 1


def test_ball_budget_counts_every_state(z2):
    o = z2.vertex("o")
    n = len(ball(z2, o, 5))
    assert len(ball(z2, o, 5, max_states=n)) == n
    with pytest.raises(ResourceLimit):
        ball(z2, o, 5, max_states=n - 1)


def directed_triangle():
    """Directed net on Z^2 with steps (1, 0), (0, 1) of weight 1 and (-1, -1)
    of weight 2: strongly connected, and no edge has a reverse."""
    return validate(QuotientGraph(2, ("o",), (
        EdgeRecord(0, 0, (1, 0), 1), EdgeRecord(0, 0, (0, 1), 1),
        EdgeRecord(0, 0, (-1, -1), 2))))


def budget_nets(z2, wakatsuki):
    return (z2, loop_graph([(1, 0), (0, 1), (1, 1)], 2, weights=[1, 3, 2]),
            wakatsuki, directed_triangle())


def test_growth_budget_counts_the_ball(z2, wakatsuki):
    terms = 9
    for g in budget_nets(z2, wakatsuki):
        o = Vertex(0, (0, 0))
        n = len(ball(g, o, terms - 1))
        s = growth_sequence(g, o, terms, max_states=n)
        assert sum(s) == n
        with pytest.raises(ResourceLimit):
            growth_sequence(g, o, terms, max_states=n - 1)


def test_undirected_search_keeps_a_window_of_shells(z2, wakatsuki):
    for g in [g for g in budget_nets(z2, wakatsuki) if g.undirected]:
        maxw = max(e.weight for e in g.edges)
        x0 = Vertex(0, (0, 0))
        search = _shells(g, _frame(g, x0, 40, 10**6), x0, 40, 10**6)
        held = [len(search.gi_frame.f_locals["window"]) for _ in search]
        assert max(held) == 2 * maxw + 1


def test_ball_targets_return_the_ball_of_the_farthest_one(z2):
    o = z2.vertex("o")
    got = ball(z2, o, None, targets=[Vertex(0, (2, 1)), Vertex(0, (0, -1))])
    assert got == ball(z2, o, 3)
    # a target beyond every state the budget allows is never settled
    with pytest.raises(ResourceLimit):
        ball(z2, o, None, max_states=50, targets=[Vertex(0, (10**6, 0))])


def test_weighted_ball():
    g = loop_graph([(1,)], 1, weights=[3])
    o = g.vertex("o")
    s = growth_sequence(g, o, 7)
    assert s == [1, 0, 0, 2, 0, 0, 2]


def test_huge_weights_cost_no_more_than_small_ones():
    # the queue is keyed by distance, so a weight of 10**9 allocates nothing
    # in proportion to it
    g = loop_graph([(1,)], 1, weights=[10**9])
    o = g.vertex("o")
    t = time.perf_counter()
    assert growth_sequence(g, o, 3) == [1, 0, 0]
    far = Vertex(0, (3,))
    assert distance(g, o, far, 3 * 10**9) == 3 * 10**9
    assert distance(g, o, far, 3 * 10**9 - 1) is None
    assert dict(ball(g, o, None, max_states=20, targets=[far])) == {
        Vertex(0, (i,)): abs(i) * 10**9 for i in range(-3, 4)}
    assert time.perf_counter() - t < 1.0


def test_distance_translation_invariance(z2):
    x = Vertex(0, (5, -3))
    y = Vertex(0, (7, 1))
    assert distance(z2, x, y, 10) == 6
    assert distance(z2, y, x, 10) == 6
    assert distance(z2, x, y, 5) is None  # beyond bound


def test_walk_and_closed_walk_vector(wakatsuki):
    # locate the reverse pair across v0 -> v1 with vector (-1, 0)
    idx = {(e.src, e.tgt, e.vector): i for i, e in enumerate(wakatsuki.edges)}
    e1 = idx[(0, 1, (-1, 0))]
    e5 = idx[(1, 0, (1, 0))]
    assert closed_walk_vector(wakatsuki, (e1, e5)) == (0, 0)
    e0 = idx[(0, 1, (0, 0))]
    assert closed_walk_vector(wakatsuki, (e5, e0)) == (1, 0)
    with pytest.raises(GraphError):
        closed_walk_vector(wakatsuki, (e1, e1))  # not consecutive
    with pytest.raises(GraphError):
        closed_walk_vector(wakatsuki, (e1,))     # not closed


def test_resource_limit(z2):
    with pytest.raises(ResourceLimit):
        ball(z2, z2.vertex("o"), 100, max_states=50)


def test_strong_connectivity_positive(z2, wakatsuki, dia):
    assert is_strongly_connected(z2)
    assert is_strongly_connected(wakatsuki)
    assert is_strongly_connected(dia)


def test_strong_connectivity_sublattice():
    # loops (2,0) and (0,1) generate an index-2 subgroup only
    g = loop_graph([(2, 0), (0, 1)], 2)
    assert quotient_strongly_connected(g)
    assert not is_strongly_connected(g)


def test_strong_connectivity_halfspace():
    # directed loop (1,): reaches only forward
    g = QuotientGraph(1, ("o",), (EdgeRecord(0, 0, (1,), 1),))
    assert not is_strongly_connected(g)


def test_strong_connectivity_quotient_disconnected():
    g = QuotientGraph(1, ("a", "b"),
                      (EdgeRecord(0, 1, (0,), 1), EdgeRecord(0, 0, (1,), 1),
                       EdgeRecord(0, 0, (-1,), 1)))
    assert not is_strongly_connected(g)


def test_lattice_index():
    assert lattice_index([(1, 0), (0, 1)], 2) == 1
    assert lattice_index([(2, 0), (0, 1)], 2) == 2
    assert lattice_index([(1, 0)], 2) == 0
    assert lattice_index([(2, 1), (1, 1)], 2) == 1
    assert lattice_index([(6,), (10,), (15,)], 1) == 1  # gcd via row steps


def test_growth_unimodular_invariance(wakatsuki):
    # transform all edge vectors by [[1,1],[0,1]]; distances are preserved
    def tf(v):
        return (v[0] + v[1], v[1])

    edges = tuple(EdgeRecord(e.src, e.tgt, tf(e.vector), e.weight, e.reverse)
                  for e in wakatsuki.edges)
    g2 = QuotientGraph(2, wakatsuki.class_names, edges, undirected=True)
    for cls in ("v0", "v1", "v2"):
        assert (growth_sequence(g2, g2.vertex(cls), 15) ==
                growth_sequence(wakatsuki, wakatsuki.vertex(cls), 15))


def test_position(wakatsuki):
    v = Vertex(1, (2, -1))
    assert wakatsuki.position(v) == (F(5, 2), F(-1, 2))
