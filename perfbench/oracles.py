"""Untimed answer checks.

Reference values come from closed forms, an independent Dijkstra over
(class, offset) states, and lattice-point counts by enumeration over
integer facet inequalities computed here.  None of them call perigraph
code.
"""

from __future__ import annotations

import heapq
import json
from fractions import Fraction as F
from itertools import combinations
from math import ceil, floor, gcd, lcm


# -- growth sequences ---------------------------------------------------

def _expand(num, den, count):
    out = []
    for i in range(count):
        acc = F(num[i]) if i < len(num) else F(0)
        for j in range(1, min(i, len(den) - 1) + 1):
            acc -= den[j] * out[i - j]
        out.append(acc / den[0])
    return out


def closed_form(fixture, start, count):
    """s_0 .. s_{count-1} from the published closed forms, or None."""
    n = range(1, count)
    if fixture == "z2":
        return [1] + [4 * k for k in n]
    if fixture == "z3":
        return [1] + [4 * k * k + 2 for k in n]
    if fixture == "dia":
        return _expand([1, 2, 4, 2, 1], [1, -2, 0, 2, -1], count)
    if fixture == "wakatsuki" and start == "v0":
        return [1] + [F(9, 2) * k - (1 if k % 2 == 0 else F(1, 2)) for k in n]
    if fixture == "wakatsuki" and start == "v2":
        head = [1, 2, 4][:count]
        return head + [3 * k if k % 2 == 0 else 6 * k - 6
                       for k in range(3, count)]
    return None


def dijkstra_growth(edges, start, rank, count):
    """s_i by Dijkstra over (class, offset); edges are (src, tgt, vec, w)."""
    out = {}
    for s, t, vec, w in edges:
        out.setdefault(s, []).append((t, vec, w))
    origin = (start, (0,) * rank)
    best = {origin: 0}
    heap = [(0, origin)]
    layers = [0] * count
    while heap:
        d, state = heapq.heappop(heap)
        if best[state] < d:
            continue
        layers[d] += 1
        cls, off = state
        for t, vec, w in out.get(cls, ()):
            nd = d + w
            nxt = (t, tuple(a + b for a, b in zip(off, vec)))
            if nd < count and nd < best.get(nxt, count):
                best[nxt] = nd
                heapq.heappush(heap, (nd, nxt))
    return layers


def cumulative(seq):
    total, out = 0, []
    for x in seq:
        total += x
        out.append(total)
    return out


# -- rational series ----------------------------------------------------

def _poly(text):
    """Coefficients of a polynomial printed as e.g. ``1+2*t-t^3``."""
    coeffs = {}
    body = text.replace("-", "+-").lstrip("+")
    for term in body.split("+"):
        coef, t, power = term.partition("t")
        coef = coef.rstrip("*")
        exp = (int(power[1:]) if power.startswith("^") else 1) if t else 0
        coeffs[exp] = F(coef + "1" if coef in ("", "-") else coef)
    return [coeffs.get(i, F(0)) for i in range(max(coeffs) + 1)]


def series_terms(text, count):
    """First terms of a series printed as ``(num) / (den)``."""
    num, den = text[1:-1].split(") / (")
    return _expand(_poly(num), _poly(den), count)


# -- polytopes ----------------------------------------------------------

def _normal(diffs):
    if len(diffs) == 1:
        (x, y), = diffs
        return (y, -x)
    (a1, a2, a3), (b1, b2, b3) = diffs
    return (a2 * b3 - a3 * b2, a3 * b1 - a1 * b3, a1 * b2 - a2 * b1)


def facets(points):
    """Facet inequalities a.y <= b (integer a, b) of conv(points).

    ``points`` are integer tuples spanning R^2 or R^3.  Every hyperplane
    through rank-many affinely independent points with all points on one
    side is a facet hyperplane of a full-dimensional hull.
    """
    out = set()
    for combo in combinations(points, len(points[0])):
        normal = _normal([tuple(a - b for a, b in zip(p, combo[0]))
                          for p in combo[1:]])
        g = 0
        for x in normal:
            g = gcd(g, x)
        if g == 0:
            continue
        normal = tuple(x // g for x in normal)
        b = sum(a * x for a, x in zip(normal, combo[0]))
        side = [sum(a * x for a, x in zip(normal, p)) - b for p in points]
        if all(s <= 0 for s in side):
            out.add((normal, b))
        elif all(s >= 0 for s in side):
            out.add((tuple(-x for x in normal), -b))
    return sorted(out)


def _rank(rows):
    m = [[F(x) for x in r] for r in rows]
    rank = 0
    for c in range(len(m[0]) if m else 0):
        piv = next((i for i in range(rank, len(m)) if m[i][c]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        for i in range(rank + 1, len(m)):
            f = m[i][c] / m[rank][c]
            m[i] = [a - f * b for a, b in zip(m[i], m[rank])]
        rank += 1
    return rank


def vertices(points, hfacets):
    """Points of the set that are vertices of its hull."""
    n = len(points[0])
    return sorted({p for p in points
                   if _rank([a for a, b in hfacets
                             if sum(x * y for x, y in zip(a, p)) == b]) == n})


def lattice_count(scaled, q, shift, t):
    """#((shift + t*P) n Z^n) for P = conv(scaled) / q, by enumeration.

    Conventions: empty for t < 0, and the single point ``shift`` at t = 0.
    Every integer point of the bounding box is visited except along the
    last axis, where the facet inequalities give the run of points exactly.
    """
    t = F(t)
    shift = [F(x) for x in shift]
    if t < 0:
        return 0
    if t == 0:
        return int(all(x.denominator == 1 for x in shift))
    # x in shift + t*P  <=>  a.(q*D*x) <= q*D*(a.shift) + D*t*b
    D = lcm(t.denominator, *(x.denominator for x in shift))
    rows = [([q * D * x for x in a],
             int(q * D * sum(x * y for x, y in zip(a, shift)) + D * t * b))
            for a, b in facets(scaled)]
    n = len(shift)
    lo = [ceil(shift[c] + t * min(p[c] for p in scaled) / q) for c in range(n)]
    hi = [floor(shift[c] + t * max(p[c] for p in scaled) / q)
          for c in range(n)]
    total = 0
    stack = [()]
    while stack:
        prefix = stack.pop()
        if len(prefix) < n - 1:
            stack.extend(prefix + (x,) for x in range(lo[len(prefix)],
                                                      hi[len(prefix)] + 1))
            continue
        first, last = lo[-1], hi[-1]
        for coef, rhs in rows:
            room = rhs - sum(a * x for a, x in zip(coef, prefix))
            if coef[-1] > 0:
                last = min(last, room // coef[-1])
            elif coef[-1] < 0:
                first = max(first, -(room // -coef[-1]))
            elif room < 0:
                last = first - 1
        total += max(0, last - first + 1)
    return total


# -- job checks ---------------------------------------------------------

def _json(outcome):
    return json.loads(outcome["out"])


def check(job, outcomes):
    """Return None when the job's answers are right, else a reason."""
    kind, want = job["kind"], job["expect"]
    first = outcomes[0]
    if kind == "over-budget":
        # refused at the budget: exit 2 per the README, or ResourceLimit
        # escaping run_command (counted separately as a budget escape)
        refused = first["rc"] == 2 or (first["exc"] or "").startswith(
            "ResourceLimit")
        return None if refused and not first["out"] else \
            f"over-budget job not refused: {first}"
    for call, outcome in zip(job["calls"], outcomes):
        if outcome["exc"] is not None:
            return f"{call[0]} raised {outcome['exc']}"
    if kind == "growth":
        if first["rc"] != 0:
            return f"growth exit {first['rc']}"
        got = _json(first)
        if got["s"] != want["s"] or got["b"] != cumulative(want["s"]):
            return "growth sequence differs from the reference"
        return None
    if kind == "certify":
        if first["rc"] != 0:
            return f"invariants exit {first['rc']}"
        got = _json(first)
        if [got["c1"], got["c2"], got["variant"]] != want["constants"]:
            return f"invariants gave {got['c1']}, {got['c2']}, {got['variant']}"
        if len(outcomes) != 2:
            return "series did not run"
        second = outcomes[1]
        if want["series_exit"] != second["rc"]:
            return f"series exit {second['rc']}, want {want['series_exit']}"
        if second["rc"] != 0:
            return None
        got = _json(second)
        if got["reciprocity_s"] != want["reciprocity_s"]:
            return f"reciprocity_s is {got['reciprocity_s']}"
        terms = series_terms(got["series"], len(want["s"]))
        return None if terms == want["s"] else \
            "series expansion differs from the reference growth sequence"
    if kind == "ehrhart":
        if first["rc"] != 0:
            return f"ehrhart exit {first['rc']}"
        got = _json(first)
        counts = [lattice_count(want["verts"], want["q"], want["shift"],
                                d + F(want["alpha"]))
                  for d in range(want["terms"])]
        if got["counts"] != counts:
            return f"ehrhart counts {got['counts']} != {counts}"
        return None if got["reciprocity"] is True else "reciprocity failed"
    if kind == "gammaq":
        if [o["rc"] for o in outcomes] != [0, 0]:
            return f"gammaq/growth exits {[o['rc'] for o in outcomes]}"
        if _json(first)["strongly_connected"] is not True:
            return "gamma_q graph is not strongly connected"
        b = [lattice_count(want["verts"], want["q"], (0, 0), i)
             for i in range(want["terms"])]
        return None if _json(outcomes[1])["b"] == b else \
            "gamma_q b_i differs from the brute-force count of iP"
    raise ValueError(f"unknown job kind {kind!r}")
