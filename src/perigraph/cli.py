"""Command line interface.

Subcommands: growth, polytope, invariants, wellarranged, series, density,
ehrhart, gammaq.  Graph inputs are pgnet/1 documents, polytope inputs are
pgpoly/1 documents.  Exit codes: 0 success, 1 negative mathematical
verdict (check commands), 2 usage or input errors and searches that exceed
--max-states or --max-cycles.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction

from . import cycles as _cycles
from . import ehrhart as _ehrhart
from . import invariants as _inv
from . import series as _series
from .field import format_scalar
from .geometry import convex_hull, volume
from .netfile import FormatError, emit_net, parse_net, parse_polytope
from .quotient import (GraphError, QuotientGraph, ResourceLimit, cumulative,
                       growth_sequence, is_strongly_connected)
from .series import FitError, IntPolynomial


class CliError(Exception):
    pass


def _read(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise CliError(str(exc)) from exc


def _load_graph(args) -> QuotientGraph:
    return parse_net(_read(args.file))


def _check_terms(args):
    """Refuse --terms or --guard below 1, for which every check would be
    vacuous."""
    for flag in ("terms", "guard"):
        value = getattr(args, flag, None)
        if value is not None and value < 1:
            raise CliError(f"--{flag} must be at least 1, got {value}")


def _start_vertex(graph, args):
    name = args.start or graph.class_names[0]
    offset = None
    if ":" in name:
        name, off = name.split(":", 1)
        try:
            offset = tuple(int(x) for x in off.split(","))
        except ValueError:
            raise CliError(f"--start offset {off!r} must be integers") from None
        if len(offset) != graph.rank:
            raise CliError(f"start offset {off!r} needs {graph.rank} "
                           f"coordinates")
    try:
        return graph.vertex(name, offset)
    except ValueError:
        raise CliError(f"unknown class {name!r}") from None


def _emit(report: dict, args):
    if args.format == "json":
        print(json.dumps(report, indent=2, default=str))
    else:
        for key, value in report.items():
            if isinstance(value, (list, tuple)):
                value = " ".join(str(x) for x in value)
            print(f"{key}: {value}")


def _rational(text):
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise CliError(f"not a rational number: {text!r}") from None


# -- plotting ----------------------------------------------------------

def _svg_points_polygons(groups, size=420):
    """groups: list of (points, closed_polygon_vertices_or_None, label)."""
    all_pts = [p for pts, poly, _ in groups for p in pts + (poly or [])]
    xs = [float(p[0]) for p in all_pts]
    ys = [float(p[1]) for p in all_pts]
    span = max(max(xs) - min(xs), max(ys) - min(ys), 1e-9)
    pad = 0.1 * span
    x0, y0 = min(xs) - pad, min(ys) - pad
    scale = size / (span + 2 * pad)

    def tx(p):
        return ((float(p[0]) - x0) * scale,
                size - (float(p[1]) - y0) * scale)

    width = size * len(groups)
    out = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
           f'height="{size + 24}" viewBox="0 0 {width} {size + 24}">']
    for gi, (pts, poly, label) in enumerate(groups):
        dx = gi * size
        if poly:
            coords = " ".join(f"{tx(p)[0] + dx:.2f},{tx(p)[1]:.2f}" for p in poly)
            out.append(f'<polygon points="{coords}" fill="#dce9f5" '
                       'stroke="#38678f" stroke-width="1.5"/>')
        for p in pts:
            cx, cy = tx(p)
            out.append(f'<circle cx="{cx + dx:.2f}" cy="{cy:.2f}" r="3" '
                       'fill="#b03030"/>')
        out.append(f'<text x="{dx + 8}" y="{size + 16}" '
                   f'font-family="monospace" font-size="13">{label}</text>')
    out.append("</svg>")
    return "\n".join(out)


def _hull_outline_2d(points):
    """Boundary vertices of the 2D hull in cyclic order (for drawing)."""
    hull = convex_hull(points)
    verts = list(hull.vertices)
    if hull.dim < 2:
        return verts
    cx = sum(v[0] for v in verts) / len(verts)
    cy = sum(v[1] for v in verts) / len(verts)
    import math
    verts.sort(key=lambda v: math.atan2(float(v[1] - cy), float(v[0] - cx)))
    return verts


def emit_plot(kind, data, path):
    """Write a plot artifact: SVG for point/polytope data, CSV for sequences."""
    if kind == "sequence":
        lines = ["i,s_i,b_i"]
        total = 0
        for i, s in enumerate(data):
            total += s
            lines.append(f"{i},{s},{total}")
        text = "\n".join(lines) + "\n"
    elif kind in ("polytope", "nu_image"):
        points, poly_vertices = data
        rank = len(points[0]) if points else len(poly_vertices[0])
        if rank == 1:
            groups = [([(p[0], 0) for p in points],
                       [(v[0], 0) for v in poly_vertices], "x")]
        elif rank == 2:
            groups = [(points, _hull_outline_2d(poly_vertices), "xy")]
        elif rank == 3:
            groups = []
            for (i, j), label in (((0, 1), "xy"), ((0, 2), "xz"), ((1, 2), "yz")):
                pr = [(p[i], p[j]) for p in points]
                pv = _hull_outline_2d([(v[i], v[j]) for v in poly_vertices])
                groups.append((pr, pv, label))
        else:
            raise CliError("plots support rank <= 3 only")
        text = _svg_points_polygons(groups)
    else:
        raise CliError(f"unknown plot kind {kind!r}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


# -- commands ----------------------------------------------------------

def cmd_growth(args):
    graph = _load_graph(args)
    x0 = _start_vertex(graph, args)
    s = growth_sequence(graph, x0, args.terms, max_states=args.max_states)
    report = {
        "graph": graph.name,
        "start": graph.class_names[x0.cls],
        "s": s,
        "b": cumulative(s),
    }
    _emit(report, args)
    if args.plot:
        emit_plot("sequence", s, args.plot)
    return 0


def cmd_polytope(args):
    graph = _load_graph(args)
    poly = _cycles.growth_polytope(graph, args.max_cycles)
    full = poly.dim == poly.ambient_dim
    report = {"graph": graph.name,
              "cycles": len(_cycles.enumerate_cycles(graph, args.max_cycles)),
              "dimension": poly.dim, "full_dimensional": full,
              "vertices": [tuple(map(str, v)) for v in poly.vertices]}
    if full:
        report["facets"] = [f"{list(a)} <= {b}" for a, b in poly.facets]
        report["volume"] = str(volume(poly))
    _emit(report, args)
    if args.plot:
        nu_points = sorted(_cycles.nu_image(graph, args.max_cycles))
        emit_plot("nu_image", (nu_points, list(poly.vertices)), args.plot)
    return 0


def cmd_invariants(args):
    graph = _load_graph(args)
    x0 = _start_vertex(graph, args)
    ac = _inv.asymptotic_constants(graph, x0, args.max_states,
                                   args.max_cycles)
    report = {
        "graph": graph.name,
        "start": graph.class_names[x0.cls],
        "strongly_connected": True,  # asymptotic_constants raises otherwise
        "p_initial": ac.variant == "p-initial",
        "c1": format_scalar(ac.c1),
        "c2": format_scalar(ac.c2),
        "variant": ac.variant,
        "c1_float": float(ac.c1),
        "c2_float": float(ac.c2),
    }
    window = _inv.alpha_ehrhart_window(ac.c1, ac.c2)
    report["alpha_window"] = ("empty" if window is None else
                              f"[{format_scalar(window[0])}, "
                              f"{format_scalar(window[1])})")
    _emit(report, args)
    return 0


def cmd_wellarranged(args):
    graph = _load_graph(args)
    x0 = _start_vertex(graph, args)
    result = _inv.well_arranged(graph, x0, max_states=args.max_states,
                                max_cycles=args.max_cycles)
    report = {
        "graph": graph.name,
        "start": graph.class_names[x0.cls],
        "status": result.status,
        "reason": result.reason,
    }
    if result.status == "well-arranged":
        report["d_v"] = {str(tuple(map(str, v))): d
                         for v, d in result.d_map.items()}
        report["denominator"] = str(_series.wa_denominator(result))
    _emit(report, args)
    return 0 if result.status == "well-arranged" else (
        1 if result.status == "not-well-arranged" else 0)


def cmd_series(args):
    _check_terms(args)
    graph = _load_graph(args)
    x0 = _start_vertex(graph, args)
    report = {"graph": graph.name, "start": graph.class_names[x0.cls]}
    if args.denominator:
        den = IntPolynomial([_rational(x) for x in args.denominator.split()])
        report["denominator_source"] = "given"
    else:
        result = _inv.well_arranged(graph, x0, max_states=args.max_states,
                                    max_cycles=args.max_cycles)
        report["well_arranged"] = result.status
        if result.status == "well-arranged":
            den = _series.wa_denominator(result)
            report["denominator_source"] = "well-arranged witness"
        else:
            # a directed net gets its verdict before any connectivity check
            if not is_strongly_connected(graph, args.max_cycles):
                raise GraphError("growth series needs a strongly connected "
                                 "periodic graph")
            pdata = _cycles.p_initial_data(graph, x0.cls, args.max_cycles)
            if not pdata.is_p_initial:
                raise CliError("start vertex is not P-initial and no "
                               "denominator was given")
            d_map = {v: w for v, (w, _) in pdata.witnesses.items()}
            den = _series.p_initial_denominator(d_map)
            report["denominator_source"] = "P-initial quasi-period"
    terms = args.terms or den.degree + args.guard + 1
    seq = growth_sequence(graph, x0, terms, max_states=args.max_states)
    fit = _series.rational_from_terms(seq, den, guard=args.guard)
    reduced = fit.reduced()
    report["denominator"] = str(den)
    report["series"] = str(reduced)
    report["terms_used"] = terms
    report["reciprocity_s"] = _series.reciprocity_check(reduced, graph.rank, "s")
    report["reciprocity_b"] = _series.reciprocity_check(
        _series.cumulative_series(reduced), graph.rank, "b")
    _emit(report, args)
    if args.plot:
        emit_plot("sequence", seq, args.plot)
    return 0


def cmd_density(args):
    graph = _load_graph(args)
    d = _series.topological_density(graph, args.max_cycles)
    _emit({"graph": graph.name, "density": str(d),
           "density_float": float(d)}, args)
    return 0


def cmd_ehrhart(args):
    _check_terms(args)
    if args.terms > args.max_states:
        raise ResourceLimit(f"--terms counts {args.terms} dilations, over "
                            f"the budget of {args.max_states} states")
    poly, name = parse_polytope(_read(args.file))
    shift = tuple(map(_rational, args.shift.split(","))) if args.shift \
        else (Fraction(0),) * poly.ambient_dim
    alpha = _rational(args.alpha)
    counts = [_ehrhart.shifted_count(poly, shift, alpha, d)
              for d in range(args.terms)]
    report = {"polytope": name, "alpha": str(alpha),
              "shift": tuple(map(str, shift)), "counts": counts}
    qp = _ehrhart.fit_shifted_qp(poly, shift, alpha,
                                 counts=dict(enumerate(counts)),
                                 max_states=args.max_states)
    report["period"] = qp.period
    report["constituents"] = [str(c) for c in qp.constituents]
    report["reciprocity"] = _ehrhart.verify_reciprocity(poly, shift, alpha,
                                                        qp, imax=args.terms)
    _emit(report, args)
    if args.plot:
        emit_plot("sequence", counts, args.plot)
    return 0 if report["reciprocity"] else 1


def cmd_gammaq(args):
    poly, name = parse_polytope(_read(args.file))
    graph = _ehrhart.gamma_q(poly, name or "gamma_q",
                             max_states=args.max_states)
    text = emit_net(graph)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    report = {
        "dilation": _ehrhart.minimal_dilation(poly),
        "edges": len(graph.edges),
        "reflexive": _ehrhart.is_reflexive(poly),
        "strongly_connected": is_strongly_connected(
            graph, max_cycles=args.max_cycles),
    }
    if args.output:
        _emit(report, args)
    return 0


@functools.cache
def build_parser():
    """The argument parser, built on first use and shared afterwards."""
    parser = argparse.ArgumentParser(
        prog="perigraph",
        description="Exact growth analysis of periodic graphs.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, graph=True):
        p.add_argument("file", help="input document")
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.add_argument("--plot", metavar="PATH",
                       help="write an SVG/CSV artifact")
        p.add_argument("--max-states", type=int, default=10_000_000)
        p.add_argument("--max-cycles", type=int, default=1_000_000)
        if graph:
            p.add_argument("--start", metavar="CLASS[:OFFSET]",
                           help="start vertex (default: first class)")

    p = sub.add_parser("growth", help="growth sequence from a start vertex")
    common(p)
    p.add_argument("--terms", type=int, default=20)
    p.set_defaults(func=cmd_growth)

    p = sub.add_parser("polytope", help="growth polytope and volume")
    common(p)
    p.set_defaults(func=cmd_polytope)

    p = sub.add_parser("invariants", help="comparison constants c1/c2")
    common(p)
    p.set_defaults(func=cmd_invariants)

    p = sub.add_parser("wellarranged", help="well-arranged verdict")
    common(p)
    p.set_defaults(func=cmd_wellarranged)

    p = sub.add_parser("series", help="rational growth series pipeline")
    common(p)
    p.add_argument("--terms", type=int, default=None)
    p.add_argument("--guard", type=int, default=8)
    p.add_argument("--denominator", metavar="COEFFS",
                   help="space-separated denominator coefficients")
    p.set_defaults(func=cmd_series)

    p = sub.add_parser("density", help="topological density n*c*vol")
    common(p)
    p.set_defaults(func=cmd_density)

    p = sub.add_parser("ehrhart", help="shifted lattice-point counting")
    common(p, graph=False)
    p.add_argument("--alpha", default="0", metavar="P/Q")
    p.add_argument("--shift", metavar="X,Y,..", default=None)
    p.add_argument("--terms", type=int, default=7)
    p.set_defaults(func=cmd_ehrhart)

    p = sub.add_parser("gammaq", help="periodic graph of a polytope")
    common(p, graph=False)
    p.add_argument("--output", "-o", metavar="PATH")
    p.set_defaults(func=cmd_gammaq)

    return parser


def run_command(argv) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (CliError, FormatError, GraphError, FitError, ResourceLimit,
            ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main():
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
