"""Spans and counters for the traced benchmark run.

Each wrapped function records one span (name, start, end, parent span, job
id) per call.  Spans are kept in compact arrays and written out when the run
ends.  Self time of a span is its duration minus the time covered by its
direct child spans; it is accumulated per span name as spans close.
Every span name counts its calls, including calls that raised; further
counters are computed from a call's arguments and return value after its
span has closed.

``install`` swaps every wrapped function object for its wrapper in every
``perigraph.*`` module dict that binds it (``ball`` is bound in both
``quotient`` and ``invariants``), and on classes for methods.  ``remove``
puts the originals back.  A name listed in ``WRAPPED`` that the program no
longer has makes ``install`` raise, so a rename fails the run instead of
reporting a silent zero.
"""

from __future__ import annotations

import functools
import importlib
import sys
from array import array
from collections import Counter, defaultdict
from time import perf_counter

MODULES = ("cli", "cycles", "ehrhart", "field", "geometry", "invariants",
           "netfile", "quotient", "series")


def _ball(tracer, args, kw, result):
    graph = args[0]
    degree = [len(graph.out_edges(c)) for c in range(graph.num_classes)]
    per_class = Counter(v.cls for v in result)
    c = tracer.counts
    c["quotient.states_settled"] += len(result)
    c["quotient.relaxations"] += sum(degree[k] * n for k, n in per_class.items())
    c["quotient.max_ball_states"] = max(c["quotient.max_ball_states"],
                                        len(result))
    if tracer.parent_name() == "invariants.c2":
        c["invariants.c2_ball_calls"] += 1


def _region(tracer, args, kw, result):
    tracer.counts["geometry.region_hits"] += bool(result)


def _box(tracer, args, kw, result):
    tracer.counts["geometry.box_points"] += len(result)


def _targets(tracer, args, kw, result):
    tracer.counts["invariants.region_targets"] += len(result)


def _count(tracer, args, kw, result):
    tracer.counts["ehrhart.points_counted"] += (
        result if isinstance(result, int) else len(result))


# (span name, module, attribute or Class.method, counter or None)
WRAPPED = (
    ("quotient.ball", "quotient", "ball", _ball),
    ("quotient.growth_sequence", "quotient", "growth_sequence", None),
    ("quotient.distance", "quotient", "distance", None),
    ("quotient.strongly_connected", "quotient", "is_strongly_connected", None),
    ("geometry.hull", "geometry", "convex_hull", None),
    ("geometry.gauge", "geometry", "gauge", None),
    ("geometry.box", "geometry", "integer_box", _box),
    ("geometry.region", "geometry", "HalfOpenRegion.contains", _region),
    ("geometry.triangulate", "geometry", "triangulate_facet", None),
    ("geometry.volume", "geometry", "volume", None),
    ("field.solve", "field", "solve_linear", None),
    ("field.det", "field", "det", None),
    ("field.rank", "field", "matrix_rank", None),
    ("cycles.enumerate", "cycles", "enumerate_cycles", None),
    ("cycles.polytope", "cycles", "growth_polytope", None),
    ("cycles.p_initial", "cycles", "p_initial_data", None),
    ("cycles.nu_image", "cycles", "nu_image", None),
    ("invariants.c1", "invariants", "c1", None),
    ("invariants.c2", "invariants", "c2", None),
    ("invariants.support", "invariants", "c2_support", None),
    ("invariants.support", "invariants", "support_distance", None),
    ("invariants.targets", "invariants", "vertices_in_regions", _targets),
    ("invariants.regions", "invariants", "region_from_triangulations", None),
    ("invariants.edge_ball", "invariants", "edge_count_ball", None),
    ("invariants.constants", "invariants", "asymptotic_constants", None),
    ("invariants.wa", "invariants", "well_arranged", None),
    ("series.fit", "series", "fit_rational", None),
    ("series.fit", "series", "rational_from_terms", None),
    ("series.reduce", "series", "RationalSeries.reduced", None),
    ("series.reciprocity", "series", "reciprocity_check", None),
    ("series.interpolate", "series", "interpolate", None),
    ("series.denominator", "series", "wa_denominator", None),
    ("series.denominator", "series", "p_initial_denominator", None),
    ("ehrhart.count", "ehrhart", "count", _count),
    ("ehrhart.count", "ehrhart", "count_interior", _count),
    ("ehrhart.count", "ehrhart", "lattice_points_of", _count),
    ("ehrhart.fit", "ehrhart", "fit_shifted_qp", None),
    ("ehrhart.reciprocity", "ehrhart", "verify_reciprocity", None),
    ("ehrhart.gamma_q", "ehrhart", "gamma_q", None),
    ("netfile.parse", "netfile", "parse_net", None),
    ("netfile.parse", "netfile", "parse_polytope", None),
    ("netfile.emit", "netfile", "emit_net", None),
)


class Tracer:
    """Span recorder: one open-span stack, spans in parallel arrays."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("i")
        self.job = array("i")
        self.stack = []            # [span index, time covered by children]
        self.self_s = defaultdict(float)
        self.counts = Counter()
        self.job_id = -1

    def intern(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name_id):
        self.counts[self.names[name_id] + ".calls"] += 1
        idx = len(self.start)
        self.name.append(name_id)
        self.parent.append(self.stack[-1][0] if self.stack else -1)
        self.job.append(self.job_id)
        self.end.append(0.0)
        self.stack.append([idx, 0.0])
        self.start.append(perf_counter())

    def close(self):
        t = perf_counter()
        idx, covered = self.stack.pop()
        duration = t - self.start[idx]
        self.end[idx] = t
        self.self_s[self.names[self.name[idx]]] += duration - covered
        if self.stack:
            self.stack[-1][1] += duration
        return duration

    def parent_name(self):
        return self.names[self.name[self.stack[-1][0]]] if self.stack else None

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span\tparent\tjob\tname\tstart_s\tend_s\n")
            t0 = self.start[0] if self.start else 0.0
            for i in range(len(self.start)):
                fh.write(f"{i}\t{self.parent[i]}\t{self.job[i]}\t"
                         f"{self.names[self.name[i]]}\t"
                         f"{self.start[i] - t0:.9f}\t{self.end[i] - t0:.9f}\n")


def _wrap(tracer, span, fn, counter):
    name_id = tracer.intern(span)

    @functools.wraps(fn)
    def wrapper(*args, **kw):
        tracer.open(name_id)
        try:
            result = fn(*args, **kw)
        finally:
            tracer.close()
        if counter is not None:
            counter(tracer, args, kw, result)
        return result

    wrapper.__wrapped_by_trace__ = True
    return wrapper


def _modules():
    for m in MODULES:
        importlib.import_module(f"perigraph.{m}")
    return [mod for name, mod in sorted(sys.modules.items())
            if name == "perigraph" or name.startswith("perigraph.")]


def install(tracer):
    """Wrap every function in WRAPPED; return the swaps for ``remove``."""
    mods = _modules()
    swaps = []
    for span, modname, attr, counter in WRAPPED:
        owner = importlib.import_module(f"perigraph.{modname}")
        cls_name, _, meth = attr.rpartition(".")
        if cls_name:
            owner = getattr(owner, cls_name, None)
            if owner is None:
                raise LookupError(f"perigraph.{modname}.{cls_name} is missing")
        original = getattr(owner, meth, None)
        if not callable(original):
            raise LookupError(f"perigraph.{modname}.{attr} is missing")
        wrapper = _wrap(tracer, span, original, counter)
        if cls_name:
            swaps.append((owner, meth, original))
            setattr(owner, meth, wrapper)
            continue
        for mod in mods:
            for key, value in list(vars(mod).items()):
                if value is original:
                    swaps.append((mod, key, original))
                    setattr(mod, key, wrapper)
    return swaps


def remove(swaps):
    """Restore the originals and check that no wrapper is left bound."""
    for owner, key, original in reversed(swaps):
        setattr(owner, key, original)
    for mod in _modules():
        for key, value in vars(mod).items():
            stale = [value] + (list(vars(value).values())
                               if isinstance(value, type) else [])
            if any(getattr(v, "__wrapped_by_trace__", False) for v in stale):
                raise RuntimeError(f"{mod.__name__}.{key} is still wrapped")
