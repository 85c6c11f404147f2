"""Comparison constants between graph distance and the polytope gauge,
alpha-window verification, and the well-arranged search.

Conventions: x0 is a Vertex; the graph must carry a realization.  c1 is
the exact maximum of gauge - distance over the ball of walks with at most
c-1 edges (c = number of classes); c2 maximizes distance - gauge over the
half-open region assembled from facet-triangulation boxes, using either
P-initial cycle data (strict variant) or full-class-support distances
(support variant).  Both read gauges off the facet rows in ints, with the
realization's denominators cleared once per call (``_gauge_rows``).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from math import lcm
from typing import NamedTuple

from .cycles import growth_polytope, nu_image, p_initial, p_initial_data
from .ehrhart import count
from .field import _cleared, scalar_sign
from .geometry import (HalfOpenRegion, gauge, origin_interior,
                       triangulate_facet, vadd, vdot, vscale, vsub)
from .quotient import (EdgeRecord, GraphError, QuotientGraph, Vertex, ball,
                       cumulative, growth_sequence, is_strongly_connected,
                       reachable_classes)


def _require_realization(graph):
    if graph.realization is None:
        raise GraphError("this computation needs a realization")


def _delta(graph, x0: Vertex, cls: int):
    """Phi(class base point) - Phi(x0) for offset 0 of the given class."""
    return vsub(graph.position(Vertex(cls, (0,) * graph.rank)),
                graph.position(x0))


def _offsets(graph, x0: Vertex):
    """(q, rows): q the realization's common denominator and, per class,
    q * (Phi(class base point) - Phi(x0)), with int coordinates (QuadExt
    ones with int parts for an irrational realization)."""
    q, real = _cleared(graph.realization)
    base = vadd(real[x0.cls], vscale(q, x0.offset))
    return q, [vsub(p, base) for p in real]


def _gauge_rows(graph, x0: Vertex, polytope):
    """The facet rows a.x / b of the gauge on one denominator, for vertices
    y = (cls, u): (den, rows, offsets) with den * a_f.(Phi(y) - Phi(x0)) /
    b_f == offsets[cls][f] + rows[f] . u for every facet f.  Every b > 0,
    the origin being interior, and m / b is an int for m the lcm of the
    numerators of the b."""
    q, deltas = _offsets(graph, x0)
    m = lcm(*(b.numerator for _, b in polytope.facets))
    scaled = [vscale(m // b.numerator * b.denominator, a)
              for a, b in polytope.facets]
    return (q * m, [vscale(q, a) for a in scaled],
            [[vdot(a, d) for a in scaled] for d in deltas])


def edge_count_ball(graph: QuotientGraph, x0: Vertex, max_edges: int,
                    max_states=10_000_000):
    """Vertices reachable by walks with at most max_edges edges, as a
    read-only mapping (quotient.Ball) Vertex -> least number of edges."""
    unit = replace(graph, edges=tuple(replace(e, weight=1)
                                      for e in graph.edges))
    return ball(unit, x0, max_edges, max_states=max_states)


def _distances_to(graph: QuotientGraph, x0: Vertex, targets, max_states):
    """Exact d(x0, y) for every target; GraphError if the quotient has no walk
    from x0's class to a target's class, or the search ends with a target
    unsettled."""
    reach = reachable_classes(graph, x0.cls)
    stranded = sum(y.cls not in reach for y in targets)
    if stranded:
        raise GraphError(f"{stranded} target vertices lie in classes the "
                         "start class cannot reach")
    dist = ball(graph, x0, None, max_states=max_states, targets=targets)
    missing = sum(y not in dist for y in targets)
    if missing:
        raise GraphError(f"{missing} target vertices are unreachable from "
                         "the start vertex")
    return dist


def c1(graph: QuotientGraph, x0: Vertex, max_states=10_000_000,
       max_cycles=1_000_000):
    """Exact value of sup_y (gauge(Phi(y) - Phi(x0)) - d(x0, y)).

    The gauge is the greatest facet row a.x / b; the rows of every target
    are compared in ints on one denominator (``_gauge_rows``), and only the
    best target's value is computed exactly, by ``gauge``."""
    _require_realization(graph)
    polytope = growth_polytope(graph, max_cycles)
    if polytope.dim < polytope.ambient_dim:
        raise GraphError("growth polytope is lower-dimensional")
    if not origin_interior(polytope):
        raise ValueError("gauge requires the origin interior to the polytope")
    c = graph.num_classes
    targets = edge_count_ball(graph, x0, c - 1, max_states=max_states)
    maxw = max(e.weight for e in graph.edges)
    dist = ball(graph, x0, (c - 1) * maxw, max_states=max_states,
                targets=targets)
    den, rows, offsets = _gauge_rows(graph, x0, polytope)
    top, arg = 0, None
    for y in targets:
        d = dist[y] * den
        for row, off in zip(rows, offsets[y.cls]):
            val = off + vdot(row, y.offset) - d
            if val > top:
                top, arg = val, y
    if arg is None:
        return Fraction(0)
    rel = vsub(graph.position(arg), graph.position(x0))
    return gauge(polytope, rel) - dist[arg]


def _general_vertex_weights(graph, max_cycles):
    """For each nonzero polytope vertex: minimal weight of any cycle with
    that nu value (no class restriction)."""
    image = nu_image(graph, max_cycles)
    origin = tuple(Fraction(0) for _ in range(graph.rank))
    out = {}
    for v in growth_polytope(graph, max_cycles).vertices:
        if v == origin:
            continue
        reps = image.get(v)
        if not reps:
            raise GraphError("polytope vertex not realized by any cycle")
        out[v] = reps[0].weight
    return out


def _generators(ds, simplex):
    """d_v * v for the vertices v of a simplex: int vectors when every one
    is a lattice vector, as a cycle vector is, else rational ones."""
    gens = tuple(tuple(d * c for c in v) for d, v in zip(ds, simplex))
    if all(x.denominator == 1 for g in gens for x in g):
        return tuple(tuple(x.numerator for x in g) for g in gens)
    return gens


def region_from_triangulations(graph, polytope, d_map):
    """Half-open union: over facets and fan simplices from each facet's
    lex-min vertex, sum of [0,1) d_v v, as (facet index, region) pairs."""
    origin = (0,) * graph.rank
    regions = []
    for i in range(len(polytope.facets)):
        for simplex in triangulate_facet(polytope, i):
            gens = _generators([d_map[v] for v in simplex], simplex)
            regions.append((i, HalfOpenRegion(origin, gens, (1,) * len(gens))))
    return regions


def vertices_in_regions(graph, x0, regions):
    """Graph vertices y with Phi(y) - Phi(x0) in the union of regions, class
    by class and in lexicographic order of the offset, as triples: y, the
    index of the first region holding y, and that region translated to the
    class's offsets, in which y's offset lies."""
    q, deltas = _offsets(graph, x0)
    found = []
    for cls, qdelta in enumerate(deltas):
        # Phi(y) - Phi(x0) = delta + u for y at offset u (delta holds
        # -x0.offset), so the hits are the integer points u of the regions
        # translated by -delta = -qdelta / q
        shift = vscale(-1, qdelta)
        moved = [r.translated(shift, q) for r in regions]
        first = {}
        for i, r in enumerate(moved):
            for u in r.integer_points():
                first.setdefault(u, i)
        found.extend((Vertex(cls, u), first[u], moved[first[u]])
                     for u in sorted(first))
    return found


def _sup_over_regions(graph, x0, polytope, d_map, distances, best):
    """Max of distances(ys)[y] - gauge over the vertices y of the half-open
    region of d_map, starting from ``best`` (None: no starting value).

    Each region spans part of the cone over one facet a.x <= b, where the
    gauge is a.x / b, so a target's gauge is its row of the facet of the
    first region holding it, in ints on one denominator (``_gauge_rows``).
    """
    if not origin_interior(polytope):
        raise ValueError("c2 requires the origin interior to the growth "
                         "polytope")
    regions = region_from_triangulations(graph, polytope, d_map)
    targets = vertices_in_regions(graph, x0, [r for _, r in regions])
    dist = distances([y for y, _, _ in targets])
    den, rows, offsets = _gauge_rows(graph, x0, polytope)
    top = None
    for y, i, _ in targets:
        f = regions[i][0]
        val = dist[y] * den - offsets[y.cls][f] - vdot(rows[f], y.offset)
        if top is None or val > top:
            top = val
    if top is None:
        return best
    value = Fraction(top, den) if isinstance(top, int) else top / den
    return value if best is None or value > best else best


def c2(graph: QuotientGraph, x0: Vertex, max_states=10_000_000,
       max_cycles=1_000_000):
    """Exact sup of d(x0, y) - gauge over the half-open region; needs x0
    P-initial."""
    _require_realization(graph)
    pdata = p_initial_data(graph, x0.cls, max_cycles)
    if not pdata.is_p_initial:
        raise GraphError("c2 requires a P-initial start vertex")
    d_map = {v: w for v, (w, _) in pdata.witnesses.items()}
    return _sup_over_regions(
        graph, x0, growth_polytope(graph, max_cycles), d_map,
        lambda ys: _distances_to(graph, x0, ys, max_states), Fraction(0))


def _support_quotient(graph: QuotientGraph, cls: int):
    """Quotient of walks that remember their class support: its classes are
    the (class, support mask) pairs reachable from (cls, {cls}).  Returns
    the product graph and the index of each pair."""
    pairs = [(cls, 1 << cls)]
    index = {pairs[0]: 0}
    edges = []
    for i, (c, mask) in enumerate(pairs):  # pairs grows during the loop
        for _, e in graph.out_edges(c):
            nxt = (e.tgt, mask | 1 << e.tgt)
            if nxt not in index:
                index[nxt] = len(pairs)
                pairs.append(nxt)
            edges.append(EdgeRecord(i, index[nxt], e.vector, e.weight))
    return QuotientGraph(graph.rank, tuple(pairs), tuple(edges)), index


def support_distance(graph: QuotientGraph, x0: Vertex, targets,
                     max_states=10_000_000):
    """d'(x0, y) for each target: minimal weight of a walk from x0 to y whose
    class support is every class.  Returns dict Vertex -> int."""
    product, index = _support_quotient(graph, x0.cls)
    full = (1 << graph.num_classes) - 1
    lifted = {}
    for y in targets:
        if (y.cls, full) not in index:
            raise GraphError(f"no walk from the start vertex covers every "
                             f"class and ends in class "
                             f"{graph.class_names[y.cls]!r}")
        lifted[y] = Vertex(index[y.cls, full], y.offset)
    dist = _distances_to(product, Vertex(0, x0.offset), lifted.values(),
                         max_states)
    return {y: dist[v] for y, v in lifted.items()}


def c2_support(graph: QuotientGraph, x0: Vertex, max_states=10_000_000,
               max_cycles=1_000_000):
    """Support variant: sup of d'(x0, y) - gauge over the half-open region,
    with d_v taken from minimal-weight cycles regardless of class."""
    _require_realization(graph)
    d_map = _general_vertex_weights(graph, max_cycles)
    return _sup_over_regions(
        graph, x0, growth_polytope(graph, max_cycles), d_map,
        lambda ys: support_distance(graph, x0, ys, max_states=max_states),
        None)


class AsymptoticConstants(NamedTuple):
    c1: object
    c2: object
    variant: str  # "p-initial" or "support"


def asymptotic_constants(graph: QuotientGraph, x0: Vertex,
                         max_states=10_000_000,
                         max_cycles=1_000_000) -> AsymptoticConstants:
    """(c1, c2) pair with d <= gauge + c2 and gauge - c1 <= d; uses the
    P-initial variant when available, the class-support variant otherwise.
    Raises GraphError unless the periodic graph is strongly connected."""
    if not is_strongly_connected(graph, max_cycles):
        raise GraphError("asymptotic constants need a strongly connected "
                         "periodic graph")
    a = c1(graph, x0, max_states, max_cycles)
    if p_initial(graph, x0.cls, max_cycles):
        return AsymptoticConstants(a, c2(graph, x0, max_states, max_cycles),
                                   "p-initial")
    return AsymptoticConstants(
        a, c2_support(graph, x0, max_states, max_cycles), "support")


def alpha_ehrhart_window(c1_value, c2_value):
    """Half-open interval [c1, 1 - c2); None when empty."""
    lo = c1_value
    hi = 1 - c2_value
    if scalar_sign(hi - lo) <= 0:
        return None
    return (lo, hi)


def verify_alpha_ehrhart(graph: QuotientGraph, x0: Vertex, alpha, imax: int,
                         max_states=10_000_000, max_cycles=1_000_000) -> bool:
    """Check b_i == #{y : gauge(Phi(y) - Phi(x0)) <= i + alpha} for i<=imax.

    With the origin interior to P, gauge(delta + u) <= t exactly when u lies
    in -delta + t*P, so each class contributes one shifted Ehrhart count."""
    _require_realization(graph)
    alpha = Fraction(alpha)
    polytope = growth_polytope(graph, max_cycles)
    if not origin_interior(polytope):
        raise ValueError("the alpha-Ehrhart check requires the origin "
                         "interior to the growth polytope")
    b = cumulative(growth_sequence(graph, x0, imax + 1, max_states=max_states))
    shifts = [vscale(-1, _delta(graph, x0, cls))
              for cls in range(graph.num_classes)]
    return b == [sum(count(polytope, v, i + alpha) for v in shifts)
                 for i in range(imax + 1)]


@dataclass(frozen=True)
class WellArrangedResult:
    status: str              # "well-arranged" | "unknown" | "not-well-arranged"
    reason: str
    # the witness; None unless the status is "well-arranged"
    d_map: dict | None = None       # vertex -> d_v
    apices: dict | None = None      # facet index -> fan apex
    simplices: tuple | None = None  # all witness simplices (vertex tuples)
    multiple: int | None = None


def well_arranged(graph: QuotientGraph, x0: Vertex, max_multiple=4,
                  max_states=10_000_000,
                  max_cycles=1_000_000) -> WellArrangedResult:
    """Search for well-arrangement data at x0.

    Semi-decision: a negative verdict is returned only with a proof (the
    graph is directed, or x0 is not P-initial); exhausting the candidate
    d_v multiples and fan apices yields "unknown", whose reason names the
    last multiple tried, the facet no fan passed and the apices tried.
    """
    _require_realization(graph)
    if not graph.undirected:
        return WellArrangedResult("not-well-arranged", "graph is directed")
    if not is_strongly_connected(graph, max_cycles):
        raise GraphError("well-arranged search needs a strongly connected graph")
    polytope = growth_polytope(graph, max_cycles)
    pdata = p_initial_data(graph, x0.cls, max_cycles)
    if not pdata.is_p_initial:
        return WellArrangedResult(
            "not-well-arranged",
            f"start vertex is not P-initial (unrealized: {pdata.missing})")
    base_d = {v: w for v, (w, _) in pdata.witnesses.items()}
    fans = {}  # (facet, apex) -> fan; the same for every multiple
    reason = "candidate search exhausted"
    for multiple in range(1, max_multiple + 1):
        d_map = {v: multiple * w for v, w in base_d.items()}
        apices = {}
        all_simplices = []
        ok = True
        ball_cache = {}
        for fi in range(len(polytope.facets)):
            fverts = polytope.facet_vertices(fi)
            chosen = None
            for apex in fverts:
                if (fi, apex) not in fans:
                    fans[fi, apex] = triangulate_facet(polytope, fi, apex=apex)
                simplices = fans[fi, apex]
                if all(_wa_condition(graph, x0, d_map, simplex, ball_cache,
                                     max_states)
                       for simplex in simplices):
                    chosen = (apex, simplices)
                    break
            if chosen is None:
                tried = ", ".join(f"({', '.join(map(str, v))})"
                                  for v in fverts)
                reason = (f"candidate search exhausted: at multiple "
                          f"{multiple}, no fan of facet {fi} passes the "
                          f"distance identity (apices tried: {tried})")
                ok = False
                break
            apices[fi] = chosen[0]
            all_simplices.extend(chosen[1])
        if ok:
            return WellArrangedResult("well-arranged", "witness found", d_map,
                                      apices, tuple(all_simplices), multiple)
    return WellArrangedResult("unknown", reason)


def _class_ball(graph, cls, radius, cache, max_states):
    key = (cls, radius)
    if key not in cache:
        cache[key] = ball(graph, Vertex(cls, (0,) * graph.rank), radius,
                          max_states=max_states)
    return cache[key]


def _wa_condition(graph, x0, d_map, simplex, ball_cache, max_states):
    """Check the distance-splitting identity for every subset S of a simplex.

    The half-open region of S is the face of the simplex's region where the
    coefficients outside S vanish, so one scan of the full region serves
    every subset: a point belongs to S when its support mask lies in S."""
    ds = [d_map[v] for v in simplex]
    full_sum = sum(ds)
    dist0 = _class_ball(graph, x0.cls, full_sum, ball_cache, max_states)
    gens = _generators(ds, simplex)
    if not all(type(x) is int for g in gens for x in g):
        return False  # d_v * v must be a lattice vector
    region = HalfOpenRegion((0,) * graph.rank, gens, (1,) * len(gens))
    points = [(y, moved.support(y.offset))
              for y, _, moved in vertices_in_regions(graph, x0, [region])]
    for mask in range(1, 1 << len(simplex)):
        subset = [j for j in range(len(simplex)) if mask >> j & 1]
        total = sum(ds[j] for j in subset)
        z_rel = tuple(map(sum, zip(*(gens[j] for j in subset))))
        for y, support in points:
            if support & ~mask:
                continue
            # d(x0,y): translate so x0 has offset 0
            y0 = Vertex(y.cls, tuple(a - b for a, b in
                                     zip(y.offset, x0.offset)))
            d1 = dist0.get(y0)
            if d1 is None or d1 > total:
                return False
            # d(y,z) = d((y.cls, 0), (x0.cls, x0off + z_rel - yoff)), and the
            # cached ball is translation-invariant, so shift to y at origin
            dist_y = _class_ball(graph, y.cls, full_sum, ball_cache, max_states)
            zoff = tuple(a + b - c for a, b, c in
                         zip(x0.offset, z_rel, y.offset))
            d2 = dist_y.get(Vertex(x0.cls, zoff))
            if d2 is None or d1 + d2 != total:
                return False
    return True
