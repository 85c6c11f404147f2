import random
from fractions import Fraction as F
from unittest import mock

import pytest

from perigraph import cycles, load_net
from perigraph.cycles import (enumerate_cycles, growth_polytope, nu, nu_image,
                              p_initial, p_initial_data)
from perigraph.quotient import EdgeRecord, QuotientGraph, ResourceLimit


def canonical(edge_indices):
    k = len(edge_indices)
    return min(tuple(edge_indices[(i + j) % k] for j in range(k))
               for i in range(k))


def brute_cycles(graph):
    """Independent oracle: DFS over closed walks with distinct target
    classes, deduplicated by minimal rotation."""
    found = set()
    for start in range(graph.num_classes):
        def dfs(cur, path, targets):
            for i, e in graph.out_edges(cur):
                if e.tgt == start:
                    found.add(canonical(path + (i,)))
                elif e.tgt not in targets:
                    dfs(e.tgt, path + (i,), targets | {e.tgt})
        dfs(start, (), {start})
    return found


def check_against_oracle(graph):
    ours = {canonical(c.edge_indices) for c in enumerate_cycles(graph)}
    assert ours == brute_cycles(graph)
    assert len(ours) == len(enumerate_cycles(graph))  # no duplicates


def test_cycle_oracle_fixtures(wakatsuki, dia, z2):
    check_against_oracle(wakatsuki)
    check_against_oracle(dia)
    check_against_oracle(z2)


def test_cycle_oracle_random_multigraphs():
    rng = random.Random(3)
    for _ in range(15):
        c = rng.randint(1, 4)
        edges = []
        for _ in range(rng.randint(2, 10)):
            edges.append(EdgeRecord(rng.randrange(c), rng.randrange(c),
                                    (rng.randint(-2, 2), rng.randint(-2, 2)),
                                    rng.randint(1, 3)))
        g = QuotientGraph(2, tuple(f"c{i}" for i in range(c)), tuple(edges))
        check_against_oracle(g)


def test_loops_and_parallel_edges():
    # two parallel loops and a parallel pair between classes
    edges = (EdgeRecord(0, 0, (1,), 1), EdgeRecord(0, 0, (2,), 1),
             EdgeRecord(0, 1, (0,), 1), EdgeRecord(0, 1, (1,), 1),
             EdgeRecord(1, 0, (0,), 1))
    g = QuotientGraph(1, ("a", "b"), edges)
    cyc = enumerate_cycles(g)
    # 2 loops + 2 two-cycles (parallel edges distinct)
    assert len(cyc) == 4
    lengths = sorted(len(c.edge_indices) for c in cyc)
    assert lengths == [1, 1, 2, 2]


def test_nu_and_named_cycles(wakatsuki):
    idx = {(e.src, e.tgt, e.vector): i for i, e in enumerate(wakatsuki.edges)}
    e0 = idx[(0, 1, (0, 0))]
    e5 = idx[(1, 0, (1, 0))]
    e3 = idx[(0, 2, (0, 0))]
    e6 = idx[(1, 0, (1, 1))]
    e9 = idx[(2, 1, (0, 0))]
    assert nu(wakatsuki, (e5, e0)) == (F(1, 2), F(0))
    assert nu(wakatsuki, (e6, e3, e9)) == (F(1, 3), F(1, 3))


def test_growth_polytope_wakatsuki(wakatsuki):
    p = growth_polytope(wakatsuki)
    assert len(p.vertices) == 6
    assert set(p.vertices) == {
        (F(1, 2), F(0)), (F(-1, 2), F(0)), (F(0), F(1, 2)), (F(0), F(-1, 2)),
        (F(1, 2), F(1, 2)), (F(-1, 2), F(-1, 2))}


def test_growth_polytope_dia(dia):
    p = growth_polytope(dia)
    assert len(p.vertices) == 12
    sizes = sorted(len(p.facet_vertices(i)) for i in range(len(p.facets)))
    assert sizes == [3] * 8 + [4] * 6


def test_nu_image_minimal_weight_first(wakatsuki):
    img = nu_image(wakatsuki)
    for reps in img.values():
        weights = [c.weight for c in reps]
        assert weights == sorted(weights)


def test_p_initial_flags(wakatsuki, dia, z2):
    assert [p_initial(wakatsuki, i) for i in range(3)] == [True, True, False]
    assert p_initial(dia, 0) and p_initial(dia, 1)
    assert p_initial(z2, 0)


def test_p_initial_data_contents(wakatsuki):
    d = p_initial_data(wakatsuki, 2)
    assert not d.is_p_initial
    assert d.missing  # some polytope vertex has no cycle through v2
    d0 = p_initial_data(wakatsuki, 0)
    assert d0.is_p_initial
    assert set(d0.witnesses) == set(growth_polytope(wakatsuki).vertices) - {
        (F(0), F(0))}
    for v, (w, cyc) in d0.witnesses.items():
        assert cyc.nu() == v
        assert 0 in cyc.classes
        assert cyc.weight == w


def test_cycle_data_is_listed_once_and_read_only():
    g = load_net("dia")
    with mock.patch.object(cycles, "_enumerate",
                           wraps=cycles._enumerate) as listing:
        assert growth_polytope(g) is growth_polytope(g)
        assert enumerate_cycles(g) is enumerate_cycles(g)
        p_initial_data(g, 0)
        assert listing.call_count == 1
    assert isinstance(enumerate_cycles(g), tuple)
    image = nu_image(g)
    assert all(isinstance(reps, tuple) for reps in image.values())
    with pytest.raises(TypeError):
        image[(F(0),) * 3] = ()
    # a graph object of its own lists again
    assert growth_polytope(load_net("dia")) is not growth_polytope(g)


def test_stored_cycles_keep_the_budget():
    g = load_net("dia")
    assert len(enumerate_cycles(g)) == 16
    for call in (enumerate_cycles, growth_polytope, nu_image):
        with pytest.raises(ResourceLimit,
                           match="^cycle enumeration exceeded 15 cycles$"):
            call(g, 15)
    with pytest.raises(ResourceLimit, match="exceeded 15 cycles"):
        p_initial_data(g, 0, 15)
    assert len(enumerate_cycles(g, 16)) == 16
    # a refused enumeration keeps nothing, and a larger budget lists again
    h = load_net("dia")
    with pytest.raises(ResourceLimit):
        enumerate_cycles(h, 1)
    assert enumerate_cycles(h) == enumerate_cycles(g)
