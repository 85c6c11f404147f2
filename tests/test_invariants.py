import time
from dataclasses import replace
from fractions import Fraction as F
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from perigraph import geometry, invariants, parse_net
from perigraph.cycles import growth_polytope, p_initial, p_initial_data
from perigraph.geometry import volume
from perigraph.field import QuadExt, matrix_rank
from perigraph.geometry import (HalfOpenRegion, gauge, integer_box,
                                triangulate_facet, vadd, vdot, vscale, vsub)
from perigraph.invariants import (alpha_ehrhart_window, asymptotic_constants,
                                  c1, c2, c2_support, edge_count_ball,
                                  region_from_triangulations,
                                  support_distance, verify_alpha_ehrhart,
                                  vertices_in_regions, well_arranged)
from perigraph.series import topological_density
from perigraph.quotient import (GraphError, ResourceLimit, Vertex, ball,
                                cumulative, growth_sequence)

from conftest import load_test_net


def origin(graph, cls=0):
    return Vertex(cls, (0,) * graph.rank)


def test_edge_count_ball(z2):
    b = edge_count_ball(z2, origin(z2), 2)
    assert len(b) == 13  # ell-1 ball of radius 2 in Z^2


def test_constants_grid(z1, z2, z3):
    for g in (z1, z2, z3):
        ac = asymptotic_constants(g, origin(g))
        assert (ac.c1, ac.c2, ac.variant) == (0, 0, "p-initial")
        assert alpha_ehrhart_window(ac.c1, ac.c2) == (0, 1)


def test_constants_wakatsuki(wakatsuki):
    vals = [asymptotic_constants(wakatsuki, origin(wakatsuki, i))
            for i in range(3)]
    assert [(a.c1, a.c2, a.variant) for a in vals] == [
        (1, 1, "p-initial"), (1, 2, "p-initial"), (1, 3, "support")]
    for a in vals:
        assert alpha_ehrhart_window(a.c1, a.c2) is None


def test_constants_irrational_realization(wakatsuki_q2):
    # wakatsuki with two classes moved by multiples of sqrt(2): the class
    # offsets delta are QuadExt, so the region scan translates regions by
    # an irrational vector; the values are those of per-point elimination
    g = wakatsuki_q2
    vals = [asymptotic_constants(g, origin(g, i)) for i in range(3)]
    assert [(a.c1, a.c2, a.variant) for a in vals] == [
        (QuadExt(2, 1, F(-1, 5)), QuadExt(2, 1, F(2, 7)), "p-initial"),
        (QuadExt(2, 1, F(3, 35)), QuadExt(2, 2, F(3, 35)), "p-initial"),
        (QuadExt(2, 1, F(3, 35)), 3, "support")]
    assert [well_arranged(g, origin(g, i)).status for i in range(3)] == [
        "unknown", "unknown", "not-well-arranged"]


def test_unknown_verdict_names_the_failing_facet(wakatsuki):
    x0 = origin(wakatsuki)
    result = well_arranged(wakatsuki, x0, max_multiple=2)
    assert result.status == "unknown"
    poly = growth_polytope(wakatsuki)
    d_map = {v: 2 * w
             for v, (w, _) in p_initial_data(wakatsuki, 0).witnesses.items()}

    def fan_passes(fi, apex):
        return all(invariants._wa_condition(wakatsuki, x0, d_map, simplex, {},
                                            10_000_000)
                   for simplex in triangulate_facet(poly, fi, apex))

    # the first facet on which no fan passes at the last multiple
    fi = next(fi for fi in range(len(poly.facets))
              if not any(fan_passes(fi, apex)
                         for apex in poly.facet_vertices(fi)))
    apices = ", ".join(f"({', '.join(map(str, v))})"
                       for v in poly.facet_vertices(fi))
    assert result.reason == (
        f"candidate search exhausted: at multiple 2, no fan of facet {fi} "
        f"passes the distance identity (apices tried: {apices})")


def test_constants_dia(dia):
    ac = asymptotic_constants(dia, origin(dia))
    assert (ac.c1, ac.c2, ac.variant) == (F(1, 2), F(1, 2), "p-initial")
    assert alpha_ehrhart_window(ac.c1, ac.c2) is None


def test_c2_requires_p_initial(wakatsuki):
    with pytest.raises(GraphError):
        c2(wakatsuki, origin(wakatsuki, 2))


def test_constants_bound_distances(wakatsuki):
    # gauge - c1 <= d <= gauge + c2 on a sample ball
    x0 = origin(wakatsuki)
    ac = asymptotic_constants(wakatsuki, x0)
    poly = growth_polytope(wakatsuki)
    for y, d in ball(wakatsuki, x0, 6).items():
        rel = [a - b for a, b in zip(wakatsuki.position(y),
                                     wakatsuki.position(x0))]
        g = gauge(poly, rel)
        assert g - ac.c1 <= d <= g + ac.c2


def test_support_distance(wakatsuki):
    v2 = origin(wakatsuki, 2)
    res = support_distance(wakatsuki, v2, [v2])
    assert res[v2] == 3
    with pytest.raises(ResourceLimit):
        support_distance(wakatsuki, v2, [v2], max_states=5)


def test_support_distance_one_way(one_way):
    a, b = one_way.vertex("a"), one_way.vertex("b")
    # b -> a, then three unit steps along the loops of a
    target = Vertex(a.cls, (3, 0))
    assert support_distance(one_way, b, [target]) == {target: 4}
    # no walk from a ever visits b; from b, none returns to b after a
    with pytest.raises(GraphError):
        support_distance(one_way, a, [target])
    with pytest.raises(GraphError):
        support_distance(one_way, b, [b])


def test_constants_need_strong_connectivity(one_way):
    for name in one_way.class_names:
        t0 = time.perf_counter()
        with pytest.raises(GraphError, match="strongly connected"):
            asymptotic_constants(one_way, one_way.vertex(name))
        assert time.perf_counter() - t0 < 1.0


def test_c2_rejects_targets_in_unreachable_classes(one_way):
    # a is P-initial, and its region holds class-b vertices a never reaches
    with pytest.raises(GraphError, match="cannot reach"):
        c2(one_way, one_way.vertex("a"), max_states=300_000)


def test_alpha_ehrhart_grids(z1, z2, z3):
    for g in (z1, z2, z3):
        assert verify_alpha_ehrhart(g, origin(g), F(1, 2), 6)
        assert verify_alpha_ehrhart(g, origin(g), F(0), 6)
        # alpha = 1 shifts the count past b_i
        assert not verify_alpha_ehrhart(g, origin(g), F(1), 6)


def test_alpha_ehrhart_matches_ball_counts(z2):
    # independent check that the verified property is the right one
    x0 = origin(z2)
    b = cumulative(growth_sequence(z2, x0, 6))
    poly = growth_polytope(z2)
    for i in range(6):
        count = 0
        for x in range(-i - 1, i + 2):
            for y in range(-i - 1, i + 2):
                if gauge(poly, (F(x), F(y))) <= i + F(1, 2):
                    count += 1
        assert count == b[i]


def test_well_arranged_grids(z1, z2, z3):
    for g in (z1, z2, z3):
        r = well_arranged(g, origin(g))
        assert r.status == "well-arranged"
        assert set(r.d_map.values()) == {1}
        assert set(r.d_map) == set(growth_polytope(g).vertices)


def test_well_arranged_dia(dia):
    r = well_arranged(dia, origin(dia))
    assert r.status == "well-arranged"
    assert r.multiple == 1
    assert set(r.d_map.values()) == {2}
    assert len(r.d_map) == 12


def test_not_well_arranged_not_p_initial(wakatsuki):
    r = well_arranged(wakatsuki, origin(wakatsuki, 2))
    assert r.status == "not-well-arranged"
    assert "P-initial" in r.reason


def test_not_well_arranged_directed():
    from perigraph.quotient import EdgeRecord, QuotientGraph
    g = QuotientGraph(1, ("a",),
                      (EdgeRecord(0, 0, (1,), 1), EdgeRecord(0, 0, (-2,), 1)),
                      undirected=False,
                      realization=((F(0),),))
    r = well_arranged(g, origin(g))
    assert r.status == "not-well-arranged"


def test_c1_stable_under_larger_balls(z2, dia):
    # c1 is the sup of gauge - d; recomputing over bigger balls by brute
    # force must not exceed the reported value
    for g in (z2, dia):
        x0 = origin(g)
        val = c1(g, x0)
        poly = growth_polytope(g)
        worst = F(0)
        for y, d in ball(g, x0, 5).items():
            rel = [a - b for a, b in zip(g.position(y), g.position(x0))]
            diff = gauge(poly, rel) - d
            if diff > worst:
                worst = diff
        assert worst <= val


def _wa_condition_per_subset(graph, x0, d_map, simplex, ball_cache,
                             max_states):
    """The well-arranged check with one box scan per subset of the simplex:
    the reference for the single scan of _wa_condition.  A point lies in
    the region of a subset S when it lies in the simplex's region and in the
    span of S's generators."""
    origin = (F(0),) * graph.rank
    full_sum = sum(d_map[v] for v in simplex)
    dist0 = invariants._class_ball(graph, x0.cls, full_sum, ball_cache,
                                   max_states)
    region = HalfOpenRegion(origin, tuple(tuple(d_map[v] * c for c in v)
                                          for v in simplex))
    for mask in range(1, 1 << len(simplex)):
        subset = [v for j, v in enumerate(simplex) if mask >> j & 1]
        total = sum(d_map[v] for v in subset)
        gens = [tuple(d_map[v] * c for c in v) for v in subset]
        step = [sum(col) for col in zip(*gens)]
        lo = [sum(min(x, 0) for x in col) for col in zip(*gens)]
        hi = [sum(max(x, 0) for x in col) for col in zip(*gens)]
        for cls in range(graph.num_classes):
            delta = invariants._delta(graph, x0, cls)
            for u in integer_box(vsub(lo, delta), vsub(hi, delta)):
                rel = vadd(delta, u)
                if (not region.contains(rel)
                        or matrix_rank(gens + [rel]) > len(gens)):
                    continue
                # y = x0 + u; z = x0 + step, so z - y = step - u
                d1 = dist0.get(Vertex(cls, u))
                if d1 is None or d1 > total:
                    return False
                dist_y = invariants._class_ball(graph, cls, full_sum,
                                                ball_cache, max_states)
                d2 = dist_y.get(Vertex(x0.cls, tuple(
                    int(z) - a for z, a in zip(step, u))))
                if d2 is None or d1 + d2 != total:
                    return False
    return True


def sheared(graph, u):
    def apply(vec):
        return tuple(sum(r * x for r, x in zip(row, vec)) for row in u)
    return replace(graph, edges=tuple(replace(e, vector=apply(e.vector))
                                      for e in graph.edges),
                   realization=tuple(map(apply, graph.realization)))


def test_well_arranged_matches_per_subset_check(z1, z2, z3, dia, wakatsuki):
    shear3 = ((1, 1, 0), (0, 1, -1), (0, 0, 1))
    cases = [(g, origin(g)) for g in (z1, z2, z3, dia)]
    cases += [(wakatsuki, origin(wakatsuki, i)) for i in range(3)]
    cases += [(sheared(z3, shear3), origin(z3)),
              (sheared(dia, shear3), origin(dia)),
              (sheared(wakatsuki, ((1, 1), (0, 1))), origin(wakatsuki, 1))]
    statuses = []
    for g, x0 in cases:
        got = well_arranged(g, x0)
        with mock.patch.object(invariants, "_wa_condition",
                               _wa_condition_per_subset):
            want = well_arranged(g, x0)
        assert got == want
        statuses.append(got.status)
    assert statuses.count("well-arranged") == 6


TWO_CLASS_Q2 = """format: pgnet/1
name: two-class-q2
rank: 1
undirected: true
class: a 0
class: b 1/2+1/100*sqrt(2)
edge: a b 0 1
edge: b a 1 1
"""


def test_two_class_irrational_constants_and_alpha_window():
    g = parse_net(TWO_CLASS_Q2)
    for cls in range(2):
        ac = asymptotic_constants(g, origin(g, cls))
        assert (ac.c1, ac.c2) == (QuadExt(2, 0, F(1, 50)),) * 2
    x0 = origin(g)
    got = [verify_alpha_ehrhart(g, x0, alpha, 8)
           for alpha in (0, F(1, 2), F(-1, 2), F(9, 10), 1)]
    assert got == [False, True, False, True, False]


CORNER_NET = ("format: pgnet/1\nrank: 2\nclass: o 0 0\n"
              "edge: o o 1 0 1\nedge: o o 0 1 1\n")


def test_alpha_ehrhart_requires_origin_interior():
    # the growth polytope conv(0, e1, e2) has the origin as a vertex
    g = parse_net(CORNER_NET)
    with pytest.raises(ValueError, match="origin interior"):
        verify_alpha_ehrhart(g, origin(g), F(-5), 3)


def test_constants_require_origin_interior():
    # the origin is a vertex of P = conv(0, e1, e2), so no d_v exists for it
    # and no region may be built; o is P-initial, so c2 reaches that check
    g = parse_net(CORNER_NET)
    assert p_initial(g, 0)
    for constant in (c1, c2, c2_support):
        with mock.patch.object(invariants, "region_from_triangulations",
                               side_effect=AssertionError("region built")):
            with pytest.raises(ValueError, match="origin interior"):
                constant(g, origin(g))


# -- invariance under a change of lattice basis --------------------------

def _invariants(graph, x0):
    ac = asymptotic_constants(graph, x0)
    wa = well_arranged(graph, x0)
    return (ac, volume(growth_polytope(graph)), topological_density(graph),
            wa.status, wa.multiple)


@st.composite
def sheared_starts(draw, names=("z2", "dia", "wakatsuki")):
    """A fixture named in ``names``, a start vertex at a random offset, and
    the fixture under a product of up to three elementary shears I + s*E_ij
    with s = +-1."""
    graph = load_test_net(draw(st.sampled_from(names)))
    n = graph.rank
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(draw(st.integers(1, 3))):
        i, j = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2,
                             unique=True))
        s = draw(st.sampled_from([1, -1]))
        u[i] = [a + s * b for a, b in zip(u[i], u[j])]

    def apply(vec):
        return tuple(sum(r * x for r, x in zip(row, vec)) for row in u)

    sheared = replace(graph,
                      edges=tuple(replace(e, vector=apply(e.vector))
                                  for e in graph.edges),
                      realization=tuple(map(apply, graph.realization)))
    cls = draw(st.integers(0, graph.num_classes - 1))
    offset = tuple(draw(st.integers(-5, 5)) for _ in range(n))
    return graph, sheared, Vertex(cls, offset)


@settings(max_examples=12, deadline=None)
@given(sheared_starts())
def test_invariants_unchanged_by_unimodular_maps(case):
    """c1, c2, volume, density and the well-arranged verdict depend on the
    net, not on the lattice basis or on where in the lattice x0 sits."""
    graph, sheared, x0 = case
    reference = _invariants(graph, origin(graph, x0.cls))
    assert _invariants(sheared, x0) == reference


def test_c2_and_witness_ignore_start_offset(z2, dia):
    # the region's vertices y sit at offset u with Phi(y) - Phi(x0) =
    # delta + u; adding x0's offset to u as well gives z2 from (2, 3) the
    # wrong c2 = 5 and an "unknown" verdict
    for graph in (z2, dia):
        x0 = Vertex(0, (2, 3) + (0,) * (graph.rank - 2))
        ref = _invariants(graph, origin(graph))
        assert _invariants(graph, x0) == ref
        assert ref[3] == "well-arranged"


# -- c2's targets and their gauge from the facet rows ----------------------

def fraction_vertices_in_regions(graph, x0, regions):
    """The target list with Fraction positions, one translation of each
    region by -delta per class: the reference for vertices_in_regions.
    Returns (y, Phi(y) - Phi(x0)) pairs."""
    found = []
    for cls in range(graph.num_classes):
        delta = invariants._delta(graph, x0, cls)
        hits = set().union(*(r.translated(vscale(-1, delta)).integer_points()
                             for r in regions))
        found.extend((Vertex(cls, u), vadd(delta, u)) for u in sorted(hits))
    return found


@settings(max_examples=20, deadline=None)
@given(sheared_starts(("z3", "dia", "wakatsuki", "wakatsuki-q2")))
def test_facet_row_gauge_matches_gauge(case):
    """Every c2 and c2_support target gets gauge(Phi(y) - Phi(x0)) from the
    row of its region's facet, and the target list, with each target's
    first region and support, is the one the Fraction scan finds; on a
    ball, the greatest row (c1's rule) is the gauge too.  The nets have
    rational and irrational (wakatsuki-q2) realizations."""
    _, graph, x0 = case
    poly = growth_polytope(graph)
    den, rows, offsets = invariants._gauge_rows(graph, x0, poly)
    pos0 = graph.position(x0)
    d_maps = [invariants._general_vertex_weights(graph, 1_000_000)]
    pdata = p_initial_data(graph, x0.cls)
    if pdata.is_p_initial:
        d_maps.append({v: w for v, (w, _) in pdata.witnesses.items()})
    for d_map in d_maps:
        pairs = region_from_triangulations(graph, poly, d_map)
        regions = [r for _, r in pairs]
        targets = vertices_in_regions(graph, x0, regions)
        reference = fraction_vertices_in_regions(graph, x0, regions)
        assert [y for y, _, _ in targets] == [y for y, _ in reference]
        for (y, i, moved), (_, rel) in zip(targets, reference):
            assert rel == vsub(graph.position(y), pos0)
            assert [r.contains(rel) for r in regions[:i + 1]] == \
                [False] * i + [True]
            assert moved.support(y.offset) == regions[i].support(rel)
            f = pairs[i][0]
            row = offsets[y.cls][f] + vdot(rows[f], y.offset)
            assert row / den == gauge(poly, rel)
    for y in ball(graph, x0, 3):
        rel = vsub(graph.position(y), pos0)
        top = max(off + vdot(row, y.offset)
                  for row, off in zip(rows, offsets[y.cls]))
        assert top / den == gauge(poly, rel)


def test_c2_calls_no_gauge(dia, wakatsuki, wakatsuki_q2):
    cases = [(dia, origin(dia))] + [(g, origin(g, i))
                                    for g in (wakatsuki, wakatsuki_q2)
                                    for i in range(3)]
    expected = [asymptotic_constants(g, x0).c2 for g, x0 in cases]
    no_gauge = AssertionError("gauge called")
    with mock.patch.object(invariants, "gauge", side_effect=no_gauge), \
            mock.patch.object(geometry, "gauge", side_effect=no_gauge):
        got = [c2(g, x0) if p_initial(g, x0.cls) else c2_support(g, x0)
               for g, x0 in cases]
    assert got == expected
