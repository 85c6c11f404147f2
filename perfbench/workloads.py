"""Seeded inputs and expected answers for the three workloads.

A workload is a list of rounds; a round is a fixed list of job kinds, each
drawn afresh from the seed.  The kinds and their mix are chosen so that
every run sees the same shape of work (see README.md for the reasons);
the seed picks the change of basis, polytope, shift and alpha.

Nets are the bundled fixtures under a seeded unimodular change of basis
(a product of elementary shears with +-1 entries), written with
``netfile.emit_net``.  Polytopes are random rational polytopes written with
``netfile.emit_polytope``.  perigraph only sees the generated files.
"""

from __future__ import annotations

import random
from dataclasses import replace
from fractions import Fraction as F
from math import lcm

from perigraph.data import load_net
from perigraph.netfile import emit_net, emit_polytope

import oracles

# rounds generated per run, enough that a run rarely wraps around
ROUNDS = {"growth": 16, "certify": 16, "lattice": 40}

# (fixture, start class, terms, shears).  Per round, six jobs of about the
# same cost (the two over budget, wakatsuki, z2) hold the median and the
# three z3 jobs hold the tail, whatever the number of jobs in a run.
GROWTH = (
    ("z3", "o", 40, 3),
    ("z3", "o", 40, 3),
    ("z3", "o", 40, 3),
    ("dia", "a", 40, 3),
    ("z2", "o", 100, 3),
    ("wakatsuki", "v0", 100, 3),
    ("wakatsuki", "v1", 100, 3),
    ("wakatsuki", "v2", 100, 3),
)
OVER_BUDGET = (("z3", "o", 40, 3, 20_000), ("dia", "a", 40, 3, 20_000))

# A certify round is one dia job and two z3 jobs under fixed shear patterns,
# plus every LIGHT fixture under 1, 2 and 3 random shears.  A fixed pattern
# is applied after a seeded relabelling of the axes, which is a symmetry of
# dia and z3, so those jobs cost the same under every seed; the dia cost
# moves by 1.5x with the sign of its shear.  The z3 jobs hold the tail.
DIA_SHEAR = ((0, 1, 1),)
Z3_SHEARS = ((0, 1, -1), (1, 2, 1), (2, 0, -1))
LIGHT = (("z3", "o"), ("z2", "o"), ("wakatsuki", "v0"), ("wakatsuki", "v1"),
         ("wakatsuki", "v2"))
CERTIFY = (("dia", "a", DIA_SHEAR), ("z3", "o", Z3_SHEARS),
           ("z3", "o", Z3_SHEARS)) + tuple(
    (fixture, start, shears) for fixture, start in LIGHT
    for shears in (1, 2, 3))
# basis-invariant answers: (c1, c2, variant), series exit, reciprocity_s
CONSTANTS = {
    ("dia", "a"): (["1/2", "1/2", "p-initial"], 0, True),
    ("z2", "o"): (["0", "0", "p-initial"], 0, True),
    ("z3", "o"): (["0", "0", "p-initial"], 0, True),
    ("wakatsuki", "v0"): (["1", "1", "p-initial"], 0, False),
    ("wakatsuki", "v1"): (["1", "2", "p-initial"], 0, False),
    ("wakatsuki", "v2"): (["1", "3", "support"], 2, None),
}
SERIES_TERMS = 30

# A lattice round is ten jobs.  The period, and with it the cost, grows
# with alpha's denominator, so each kind takes the alphas of its tuple in
# turn.  The gamma_q hexagons hold the median; the rank-3, q = 2 job,
# always at period 6, holds the tail.
OFFSETS = ("0", "1/2", "-1/2", "1/3", "-1/3")
# (rank, vertex denominator, coordinate radius in units of 1, alphas)
EHRHART = ((2, 1, 3, OFFSETS), (2, 2, 2, OFFSETS), (2, 3, 1, OFFSETS),
           (2, 4, 1, OFFSETS), (3, 1, 2, OFFSETS), (3, 2, 1, ("1/3", "-1/3")))
# origin-symmetric lattice polygons for gamma_q, each under a seeded signed
# permutation of the axes; a random one would make the cost of the job jump
# with its number of loop vectors
SQUARE = ((-1, -1), (-1, 1), (1, -1), (1, 1))
HEXAGON = ((-1, 0), (-1, 1), (0, -1), (0, 1), (1, -1), (1, 0))
GAMMA_Q = (("square", SQUARE), ("hexagon", HEXAGON)) * 2
GAMMA_Q_TERMS = 16


def unimodular(rng, n, shears):
    """Product of elementary shears I + s*E_ij, s = +-1, in the axes of a
    seeded permutation.  ``shears`` is a pattern of (i, j, s) or a count of
    random ones."""
    if isinstance(shears, int):
        shears = [(*rng.sample(range(n), 2), rng.choice((1, -1)))
                  for _ in range(shears)]
    axis = rng.sample(range(n), n)
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    for i, j, s in shears:
        u[axis[i]] = [a + s * b for a, b in zip(u[axis[i]], u[axis[j]])]
    return u


def sheared(graph, u):
    def apply(vec):
        return tuple(sum(r * x for r, x in zip(row, vec)) for row in u)
    edges = tuple(replace(e, vector=apply(e.vector)) for e in graph.edges)
    real = tuple(apply(c) for c in graph.realization)
    return replace(graph, edges=edges, realization=real)


class Generator:
    """Writes input files under ``workdir`` and builds job records."""

    def __init__(self, seed, workdir):
        self.rng = random.Random(seed)
        self.workdir = workdir
        self.nets = {}
        self.refs = {}
        self.count = 0

    def _path(self, suffix):
        self.count += 1
        return f"{self.workdir}/in{self.count:04d}{suffix}"

    def net(self, fixture, shears):
        graph = self.nets.setdefault(fixture, load_net(fixture))
        u = unimodular(self.rng, graph.rank, shears)
        path = self._path(".net")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(emit_net(sheared(graph, u)))
        return path

    def growth_ref(self, fixture, start, terms):
        key = (fixture, start, terms)
        if key not in self.refs:
            ref = oracles.closed_form(fixture, start, terms)
            if ref is None:
                g = self.nets.setdefault(fixture, load_net(fixture))
                edges = [(e.src, e.tgt, e.vector, e.weight) for e in g.edges]
                ref = oracles.dijkstra_growth(edges, g.class_index(start),
                                              g.rank, terms)
            self.refs[key] = [int(x) for x in ref]
        return self.refs[key]

    def polytope(self, rank, q, radius):
        """Random rational polytope whose vertices have denominator q and
        whose bounding box is [-radius, radius]^rank; returns the integer
        points q*P."""
        bound = radius * q
        while True:
            pts = sorted({tuple(self.rng.randint(-bound, bound)
                                for _ in range(rank))
                          for _ in range(rank + 3)})
            hull = oracles.facets(pts) if len(pts) > rank else []
            if len(hull) <= rank or any(
                    {min(p[c] for p in pts), max(p[c] for p in pts)} !=
                    {-bound, bound} for c in range(rank)):
                continue
            verts = oracles.vertices(pts, hull)
            if lcm(*(F(x, q).denominator for v in verts for x in v)) == q:
                return verts

    def signed_permutation(self, verts):
        axes = self.rng.sample(range(len(verts[0])), len(verts[0]))
        signs = [self.rng.choice((1, -1)) for _ in axes]
        return sorted(tuple(s * v[a] for s, a in zip(signs, axes))
                      for v in verts)

    def write_polytope(self, verts, q):
        path = self._path(".poly")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(emit_polytope([tuple(F(x, q) for x in v)
                                    for v in verts]))
        return path

    # -- job kinds ------------------------------------------------------

    def job(self, kind, label, calls, **expect):
        return {"kind": kind, "label": label, "calls": calls,
                "expect": expect}

    def growth_round(self, index):
        jobs = []
        for fixture, start, terms, shears in GROWTH:
            path = self.net(fixture, shears)
            jobs.append(self.job(
                "growth", f"{fixture}:{start} T={terms}",
                [["growth", path, "--start", start, "--terms", str(terms),
                  "--format", "json"]],
                s=self.growth_ref(fixture, start, terms)))
        for fixture, start, terms, shears, budget in OVER_BUDGET:
            path = self.net(fixture, shears)
            jobs.append(self.job(
                "over-budget", f"{fixture}:{start} T={terms} max={budget}",
                [["growth", path, "--start", start, "--terms", str(terms),
                  "--max-states", str(budget), "--format", "json"]]))
        return jobs

    def certify_round(self, index):
        jobs = []
        for fixture, start, shears in CERTIFY:
            path = self.net(fixture, shears)
            constants, series_exit, recip = CONSTANTS[(fixture, start)]
            count = shears if isinstance(shears, int) else \
                f"{len(shears)} fixed"
            jobs.append(self.job(
                "certify", f"{fixture}:{start} shears={count}",
                [["invariants", path, "--start", start, "--format", "json"],
                 ["series", path, "--start", start, "--format", "json"]],
                constants=constants, series_exit=series_exit,
                reciprocity_s=recip,
                s=self.growth_ref(fixture, start, SERIES_TERMS)))
        return jobs

    def lattice_round(self, index):
        jobs = []
        for k, (rank, q, radius, alphas) in enumerate(EHRHART):
            verts = self.polytope(rank, q, radius)
            path = self.write_polytope(verts, q)
            alpha = alphas[(index + k) % len(alphas)]
            shift = [self.rng.choice(OFFSETS) for _ in range(rank)]
            jobs.append(self.job(
                "ehrhart", f"rank {rank} q={q} r={radius}",
                [["ehrhart", path, f"--alpha={alpha}",
                  f"--shift={','.join(shift)}", "--terms", "7",
                  "--format", "json"]],
                verts=verts, q=q, shift=shift, alpha=alpha, terms=7))
        for shape, verts in GAMMA_Q:
            verts = self.signed_permutation(verts)
            path = self.write_polytope(verts, 1)
            out = path[:-len(".poly")] + ".gamma.net"
            jobs.append(self.job(
                "gammaq", f"{shape} T={GAMMA_Q_TERMS}",
                [["gammaq", path, "-o", out, "--format", "json"],
                 ["growth", out, "--terms", str(GAMMA_Q_TERMS),
                  "--format", "json"]],
                verts=verts, q=1, terms=GAMMA_Q_TERMS))
        return jobs


def rounds(workload, seed, workdir):
    gen = Generator(seed, workdir)
    make = {"growth": gen.growth_round, "certify": gen.certify_round,
            "lattice": gen.lattice_round}[workload]
    out = []
    for index in range(ROUNDS[workload]):
        rnd = make(index)
        gen.rng.shuffle(rnd)
        out.append(rnd)
    jobs = [j for rnd in out for j in rnd]
    for i, job in enumerate(jobs):
        job["id"] = i
    return out
