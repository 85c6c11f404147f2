"""Line-oriented document formats.

``pgnet/1`` describes a quotient graph::

    format: pgnet/1
    name: wakatsuki
    rank: 2
    undirected: true
    class: v0 0 0
    class: v1 1/2 1/2
    class: v2 1/2 0
    edge: v0 v1 0 0 1

Class lines give the class name followed by optional realization
coordinates (exact literals ``p/q`` or ``p/q+r/s*sqrt(d)``).  Edge lines
give source, target, the integer translation vector, and the weight.  In
an undirected document each edge line stands for a reverse pair and the
parser generates the reverse (a zero-vector loop is its own reverse).

``pgpoly/1`` describes a polytope by its vertices::

    format: pgpoly/1
    name: square
    rank: 2
    vertex: -1 -1
    vertex: 1 -1
    vertex: -1 1
    vertex: 1 1
"""

from __future__ import annotations

from fractions import Fraction

from .field import format_scalar, parse_scalar
from .geometry import convex_hull
from .quotient import EdgeRecord, QuotientGraph, validate


class FormatError(ValueError):
    pass


def _lines(text):
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if ":" not in line:
            raise FormatError(f"line {lineno}: expected 'key: value'")
        key, value = line.split(":", 1)
        yield lineno, key.strip(), value.strip()


def _scalars(lineno, literals, parse, what="coordinate"):
    """The exact values of a line's literals (coordinates, or the integers
    of a rank, vector or weight); FormatError naming the line for a literal
    that does not parse or has a zero denominator."""
    values = []
    for text in literals:
        try:
            values.append(parse(text))
        except (ValueError, ZeroDivisionError):
            raise FormatError(f"line {lineno}: bad {what} {text!r}") from None
    return tuple(values)


def parse_net(text: str) -> QuotientGraph:
    name = ""
    rank = None
    undirected = False
    class_names = []
    coords = []
    edge_rows = []
    fmt_seen = False
    for lineno, key, value in _lines(text):
        if key == "format":
            if value != "pgnet/1":
                raise FormatError(f"line {lineno}: unsupported format {value!r}")
            fmt_seen = True
        elif key == "name":
            name = value
        elif key == "rank":
            rank, = _scalars(lineno, [value], int, "rank")
        elif key == "undirected":
            if value not in ("true", "false"):
                raise FormatError(f"line {lineno}: undirected must be true/false")
            undirected = value == "true"
        elif key == "class":
            parts = value.split()
            if not parts:
                raise FormatError(f"line {lineno}: empty class line")
            class_names.append(parts[0])
            coords.append(_scalars(lineno, parts[1:], parse_scalar) or None)
        elif key == "edge":
            if rank is None:
                raise FormatError(f"line {lineno}: rank must come before edges")
            parts = value.split()
            if len(parts) != rank + 3:
                raise FormatError(
                    f"line {lineno}: edge needs src tgt {rank} vector "
                    f"components and a weight")
            edge_rows.append((lineno, parts[0], parts[1],
                              _scalars(lineno, parts[2:-1], int,
                                       "vector entry"),
                              *_scalars(lineno, parts[-1:], int, "weight")))
        else:
            raise FormatError(f"line {lineno}: unknown key {key!r}")
    if not fmt_seen:
        raise FormatError("missing 'format: pgnet/1' line")
    if rank is None:
        raise FormatError("missing rank")
    index = {c: i for i, c in enumerate(class_names)}
    if len(index) != len(class_names):
        raise FormatError("duplicate class names")
    with_coords = [c for c in coords if c is not None]
    if with_coords and len(with_coords) != len(coords):
        raise FormatError("realization must cover every class or none")
    for c in with_coords:
        if len(c) != rank:
            raise FormatError("realization coordinates have wrong length")
    realization = tuple(coords) if with_coords else None
    edges = []
    for lineno, s, t, vec, w in edge_rows:
        if s not in index or t not in index:
            raise FormatError(f"line {lineno}: unknown class in edge")
        if not undirected:
            edges.append(EdgeRecord(index[s], index[t], vec, w))
            continue
        i = len(edges)
        neg = tuple(-x for x in vec)
        if s == t and vec == neg:  # zero-vector loop: its own reverse
            edges.append(EdgeRecord(index[s], index[t], vec, w, i))
        else:
            edges.append(EdgeRecord(index[s], index[t], vec, w, i + 1))
            edges.append(EdgeRecord(index[t], index[s], neg, w, i))
    graph = QuotientGraph(rank, tuple(class_names), tuple(edges),
                          undirected=undirected, realization=realization,
                          name=name)
    return validate(graph)


def emit_net(graph: QuotientGraph) -> str:
    out = ["format: pgnet/1"]
    if graph.name:
        out.append(f"name: {graph.name}")
    out.append(f"rank: {graph.rank}")
    out.append(f"undirected: {'true' if graph.undirected else 'false'}")
    for i, cname in enumerate(graph.class_names):
        if graph.realization is not None:
            coords = " ".join(format_scalar(x) for x in graph.realization[i])
            out.append(f"class: {cname} {coords}".rstrip())
        else:
            out.append(f"class: {cname}")
    for i, e in enumerate(graph.edges):
        if graph.undirected and e.reverse is not None and e.reverse < i:
            continue  # emit one representative per reverse pair
        vec = " ".join(str(x) for x in e.vector)
        out.append(f"edge: {graph.class_names[e.src]} "
                   f"{graph.class_names[e.tgt]} {vec} {e.weight}")
    return "\n".join(out) + "\n"


def parse_polytope(text: str):
    name = ""
    rank = None
    verts = []
    fmt_seen = False
    for lineno, key, value in _lines(text):
        if key == "format":
            if value != "pgpoly/1":
                raise FormatError(f"line {lineno}: unsupported format {value!r}")
            fmt_seen = True
        elif key == "name":
            name = value
        elif key == "rank":
            rank, = _scalars(lineno, [value], int, "rank")
        elif key == "vertex":
            verts.append((lineno, _scalars(lineno, value.split(), Fraction)))
        else:
            raise FormatError(f"line {lineno}: unknown key {key!r}")
    if not fmt_seen:
        raise FormatError("missing 'format: pgpoly/1' line")
    if rank is None:
        raise FormatError("missing rank")
    if rank < 1:
        raise FormatError("rank must be at least 1")
    if not verts:
        raise FormatError("polytope document has no vertices")
    for lineno, v in verts:
        if len(v) != rank:
            raise FormatError(f"line {lineno}: vertex has wrong length")
    return convex_hull([v for _, v in verts]), name


def emit_polytope(vertices, name="") -> str:
    out = ["format: pgpoly/1"]
    if name:
        out.append(f"name: {name}")
    out.append(f"rank: {len(vertices[0])}")
    for v in sorted(vertices):
        out.append("vertex: " + " ".join(str(Fraction(x)) for x in v))
    return "\n".join(out) + "\n"
