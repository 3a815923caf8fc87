"""Command-line front end.

Reads human-writable description files for gluing graphs, boundary points and
built representations, runs the library and prints line-oriented
``key: value`` reports (or JSON with --json).

Exit codes: 0 success, 2 parse error, 3 mathematical refusal (the requested
object does not exist), 4 numerical breakdown (tolerances could not decide).
The environment variable MAXREP_TOL overrides the relative comparison
tolerance; --seed (limits only) seeds the limit-set sampler.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from fractions import Fraction

import numpy as np

from .deform import deform_to_standard
from .errors import MathematicalRefusal, MaxRepError, NumericalBreakdown
from .gluing import (
    GluingGraph,
    GraphBoundary,
    GraphEdge,
    PantsNode,
    SurfaceRep,
    build_from_graph,
    component_signature,
    glue_reps,
    relation_residual,
)
from .limits import limit_set_sample
from .maslov import Triple, maslov
from .matcore import DEFAULT_TOL, Tolerance
from .pants import PantsParams, build_maximal, classify_params, toledo, toledo_signature_shortcut
from .symplectic import (
    INFINITY,
    BoundaryPoint,
    SpMat,
    finite_point,
    identity_point,
    symplectic_residual,
    zero_point,
)

PARSE_ERROR, REFUSAL, BREAKDOWN = 2, 3, 4


class ParseError(Exception):
    def __init__(self, msg, line=None):
        where = f" (line {line})" if line is not None else ""
        super().__init__(msg + where)


# ---------------------------------------------------------------------------
# tokenized line reader


class _Reader:
    def __init__(self, path: str):
        try:
            with open(path) as fh:
                raw = fh.readlines()
        except OSError as exc:
            raise ParseError(f"cannot read {path}: {exc}")
        self.lines: list[tuple[int, str]] = []
        for i, line in enumerate(raw, start=1):
            body = line.split("#", 1)[0].strip()
            if body:
                self.lines.append((i, body))
        self.pos = 0

    def peek(self):
        return self.lines[self.pos] if self.pos < len(self.lines) else (None, None)

    def next(self):
        if self.pos >= len(self.lines):
            raise ParseError("unexpected end of file")
        item = self.lines[self.pos]
        self.pos += 1
        return item

    def done(self) -> bool:
        return self.pos >= len(self.lines)


def _parse_float(token: str, line: int, strict: bool) -> float:
    try:
        v = float(token)
    except ValueError:
        raise ParseError(f"not a number: {token!r}", line)
    if not math.isfinite(v):
        raise ParseError(f"not a finite number: {token!r}", line)
    if strict and repr(v) != token:
        raise ParseError(
            f"strict mode: {token!r} does not round-trip (canonical {repr(v)})", line)
    return v


def _directive_values(toks: list[str], count: int, convert, line: int) -> list:
    """The count values of a directive line, converted, or a ParseError."""
    if len(toks) != count + 1:
        raise ParseError(f"'{toks[0]}' takes {count} value(s), got {len(toks) - 1}",
                         line)
    try:
        return [convert(t) for t in toks[1:]]
    except ValueError:
        raise ParseError(f"bad value for '{toks[0]}': {' '.join(toks[1:])!r}", line)


def _read_matrix(reader: _Reader, n: int, strict: bool) -> np.ndarray:
    rows = []
    for _ in range(n):
        line_no, body = reader.next()
        toks = body.split()
        if len(toks) != n:
            raise ParseError(f"expected {n} entries, got {len(toks)}", line_no)
        rows.append([_parse_float(t, line_no, strict) for t in toks])
    return np.array(rows)


def _format_matrix(m: np.ndarray, indent: str = "  ") -> str:
    return "\n".join(indent + " ".join(repr(float(v)) for v in row) for row in m)


# ---------------------------------------------------------------------------
# graph files


def parse_graph_file(path: str, strict: bool = False) -> GluingGraph:
    reader = _Reader(path)
    line_no, header = reader.next()
    if header.split() != ["maxrep-graph", "1"]:
        raise ParseError("expected header 'maxrep-graph 1'", line_no)
    n = None
    declared = None
    nodes: list[PantsNode] = []
    edges: list[GraphEdge] = []
    boundaries: list[GraphBoundary] = []
    while not reader.done():
        line_no, body = reader.next()
        toks = body.split()
        key = toks[0]
        if key == "n":
            n = _directive_values(toks, 1, int, line_no)[0]
        elif key == "surface":
            declared = tuple(_directive_values(toks, 2, int, line_no))
        elif key == "node":
            if n is None:
                raise ParseError("'n' must come before nodes", line_no)
            if len(toks) != 2:
                raise ParseError("usage: node NAME", line_no)
            mats = {}
            for want in ("X1", "X2", "X3"):
                l2, b2 = reader.next()
                if b2 != want:
                    raise ParseError(f"expected '{want}'", l2)
                mats[want] = _read_matrix(reader, n, strict)
            l2, b2 = reader.next()
            if b2 != "end":
                raise ParseError("expected 'end' after node matrices", l2)
            nodes.append(PantsNode(toks[1], PantsParams(mats["X1"], mats["X2"], mats["X3"])))
        elif key == "edge":
            if n is None:
                raise ParseError("'n' must come before edges", line_no)
            if len(toks) != 5:
                raise ParseError("usage: edge UPNODE UPPORT LONODE LOPORT", line_no)
            tw = _read_matrix(reader, n, strict)
            l2, b2 = reader.next()
            if b2 != "end":
                raise ParseError("expected 'end' after twist matrix", l2)
            edges.append(GraphEdge((toks[1], int(toks[2])), (toks[3], int(toks[4])), tw))
        elif key == "boundary":
            if len(toks) != 4:
                raise ParseError("usage: boundary NODE PORT LABEL", line_no)
            boundaries.append(GraphBoundary((toks[1], int(toks[2])), toks[3]))
        else:
            raise ParseError(f"unknown directive {key!r}", line_no)
    graph = GluingGraph(tuple(nodes), tuple(edges), tuple(boundaries))
    try:
        gm = graph.surface_type()
    except MaxRepError:
        raise
    if declared is not None and gm != declared:
        raise ParseError(f"declared surface {declared} but graph has type {gm}")
    return graph


def write_graph_file(graph: GluingGraph, fh, comment: str | None = None):
    if comment:
        fh.write(f"# {comment}\n")
    fh.write("maxrep-graph 1\n")
    fh.write(f"n {graph.n}\n")
    g, m = graph.surface_type()
    fh.write(f"surface {g} {m}\n")
    for nd in graph.nodes:
        fh.write(f"node {nd.name}\n")
        for name, mat in zip(("X1", "X2", "X3"), nd.params.matrices()):
            fh.write(f"  {name}\n{_format_matrix(mat)}\n")
        fh.write("end\n")
    for e in graph.edges:
        fh.write(f"edge {e.upper[0]} {e.upper[1]} {e.lower[0]} {e.lower[1]}\n")
        fh.write(_format_matrix(np.asarray(e.twist)) + "\nend\n")
    for b in graph.boundaries:
        fh.write(f"boundary {b.port[0]} {b.port[1]} {b.label}\n")


# ---------------------------------------------------------------------------
# representation (generator image) files


def write_rep_file(rep: SurfaceRep, fh):
    fh.write("maxrep-rep 1\n")
    fh.write(f"n {rep.n}\n")
    fh.write(f"surface {rep.genus} {rep.m}\n")
    for name, g in rep.generator_images().items():
        fh.write(f"generator {name}\n{_format_matrix(g.m)}\nend\n")


def parse_rep_file(path: str, strict: bool = False) -> tuple[int, int, int, dict[str, np.ndarray]]:
    reader = _Reader(path)
    line_no, header = reader.next()
    if header.split() != ["maxrep-rep", "1"]:
        raise ParseError("expected header 'maxrep-rep 1'", line_no)
    n = genus = m = None
    gens: dict[str, np.ndarray] = {}
    while not reader.done():
        line_no, body = reader.next()
        toks = body.split()
        if toks[0] == "n":
            n = _directive_values(toks, 1, int, line_no)[0]
        elif toks[0] == "surface":
            genus, m = _directive_values(toks, 2, int, line_no)
        elif toks[0] == "generator":
            if n is None:
                raise ParseError("'n' must come before generators", line_no)
            if len(toks) != 2:
                raise ParseError("usage: generator NAME", line_no)
            mat = _read_matrix(reader, 2 * n, strict)
            l2, b2 = reader.next()
            if b2 != "end":
                raise ParseError("expected 'end' after generator", l2)
            gens[toks[1]] = mat
        else:
            raise ParseError(f"unknown directive {toks[0]!r}", line_no)
    if n is None or genus is None:
        raise ParseError("rep file must declare n and surface")
    names = [f"{x}{i}" for x in "AB" for i in range(1, genus + 1)] \
        + [f"C{j}" for j in range(1, m + 1)]
    missing = [name for name in names if name not in gens]
    if missing:
        raise ParseError(f"rep file lacks generators {' '.join(missing)}")
    return n, genus, m, gens


# ---------------------------------------------------------------------------
# point files


def parse_points_file(path: str, strict: bool = False) -> tuple[int, list[BoundaryPoint]]:
    reader = _Reader(path)
    line_no, header = reader.next()
    if header.split() != ["maxrep-points", "1"]:
        raise ParseError("expected header 'maxrep-points 1'", line_no)
    n = None
    pts: list[BoundaryPoint] = []
    while not reader.done():
        line_no, body = reader.next()
        toks = body.split()
        if toks[0] == "n":
            n = _directive_values(toks, 1, int, line_no)[0]
        elif toks[0] == "point":
            if n is None:
                raise ParseError("'n' must come before points", line_no)
            if len(toks) == 2:
                named = {"inf": INFINITY, "zero": zero_point(n),
                         "identity": identity_point(n)}
                if toks[1] not in named:
                    raise ParseError(f"unknown named point {toks[1]!r}", line_no)
                pts.append(named[toks[1]])
            else:
                pts.append(finite_point(_read_matrix(reader, n, strict)))
        else:
            raise ParseError(f"unknown directive {toks[0]!r}", line_no)
    return n, pts


# ---------------------------------------------------------------------------
# reports


class Report:
    def __init__(self, as_json: bool):
        self.as_json = as_json
        self.items: list[tuple[str, object]] = []

    def add(self, key: str, value):
        self.items.append((key, value))

    def emit(self):
        if self.as_json:
            print(json.dumps(dict(self.items), indent=2, default=str))
        else:
            for k, v in self.items:
                print(f"{k}: {v}")


def _tolerance(args) -> Tolerance:
    eq = DEFAULT_TOL.eq_tol
    env = os.environ.get("MAXREP_TOL")
    if env:
        eq = float(env)
    if getattr(args, "tol", None) is not None:
        eq = args.tol
    if not (math.isfinite(eq) and eq > 0):
        raise ParseError(f"tolerance must be finite and greater than 0, got {eq!r}")
    return Tolerance(eq_tol=eq)


def _describe_build(rep: SurfaceRep, graph: GluingGraph, tol: Tolerance, rpt: Report):
    g, m = graph.surface_type()
    rpt.add("surface", f"genus {g}, boundaries {m}")
    rpt.add("n", rep.n)
    for nd in graph.nodes:
        rpt.add(f"node {nd.name} class", classify_params(nd.params, tol).value)
        rpt.add(f"node {nd.name} toledo",
                str(toledo_signature_shortcut(nd.params, tol)))
    rpt.add("relation residual", f"{rep.relation_residual:.6e}")


# ---------------------------------------------------------------------------
# commands


def cmd_build(args) -> int:
    tol = _tolerance(args)
    graph = parse_graph_file(args.file, args.strict)
    rep = build_from_graph(graph, tol)
    rpt = Report(args.json)
    rpt.add("status", "ok")
    _describe_build(rep, graph, tol, rpt)
    rpt.add("generators", " ".join(rep.generator_images().keys()))
    rpt.emit()
    if args.out:
        with open(args.out, "w") as fh:
            write_rep_file(rep, fh)
    return 0


def cmd_verify(args) -> int:
    tol = _tolerance(args)
    head = ""
    with open(args.file) as fh:
        for line in fh:
            head = line.split("#", 1)[0].strip()
            if head:
                break
    rpt = Report(args.json)
    if head.startswith("maxrep-graph"):
        graph = parse_graph_file(args.file, args.strict)
        rep = build_from_graph(graph, tol)
        rpt.add("status", "ok")
        _describe_build(rep, graph, tol, rpt)
    else:
        n, genus, m, gens = parse_rep_file(args.file, args.strict)
        worst = 0.0
        for name, mat in gens.items():
            res, _ = symplectic_residual(mat)
            rpt.add(f"generator {name} symplectic residual", f"{res:.6e}")
            worst = max(worst, res)
        a = [SpMat(gens[f"A{i}"]) for i in range(1, genus + 1)]
        b = [SpMat(gens[f"B{i}"]) for i in range(1, genus + 1)]
        c = [SpMat(gens[f"C{j}"]) for j in range(1, m + 1)]
        rel = relation_residual(n, a, b, c)
        rpt.add("relation residual", f"{rel:.6e}")
        rpt.add("status", "ok" if worst <= 1e-6 and rel <= 1e-6 else "suspect")
    rpt.emit()
    return 0


def cmd_toledo(args) -> int:
    tol = _tolerance(args)
    graph = parse_graph_file(args.file, args.strict)
    rpt = Report(args.json)
    total = Fraction(0)
    for nd in graph.nodes:
        t_short = toledo_signature_shortcut(nd.params, tol)
        rep = build_maximal(nd.params, tol)
        tr = Triple(zero_point(graph.n), identity_point(graph.n), INFINITY)
        t_index = toledo(rep, tr, tol=tol)
        rpt.add(f"node {nd.name} T (signature route)", str(t_short))
        rpt.add(f"node {nd.name} T (index route)", str(t_index))
        total += t_short
    rpt.add("T", str(total))
    rpt.emit()
    return 0


def cmd_maslov(args) -> int:
    tol = _tolerance(args)
    n, pts = parse_points_file(args.file, args.strict)
    if len(pts) != 3:
        raise ParseError(f"need exactly three points, got {len(pts)}")
    b = maslov(Triple(*pts), tol)
    rpt = Report(args.json)
    rpt.add("n", n)
    rpt.add("maslov", b)
    rpt.emit()
    return 0


def cmd_components(args) -> int:
    tol = _tolerance(args)
    graph = parse_graph_file(args.file, args.strict)
    rep = build_from_graph(graph, tol)
    sig = component_signature(rep, tol)
    g, m = graph.surface_type()
    rpt = Report(args.json)
    rpt.add("surface", f"genus {g}, boundaries {m}")
    rpt.add("signature", "(" + ", ".join("+" if s > 0 else "-" for s in sig) + ")")
    rpt.add("components", f"2^{2 * g + m - 1} = {2 ** (2 * g + m - 1)}")
    rpt.emit()
    return 0


def cmd_glue(args) -> int:
    tol = _tolerance(args)
    graph1 = parse_graph_file(args.file1, args.strict)
    graph2 = parse_graph_file(args.file2, args.strict)
    rep1 = build_from_graph(graph1, tol)
    rep2 = build_from_graph(graph2, tol)
    reader = _Reader(args.twist_file)
    twist = _read_matrix(reader, graph1.n, args.strict)
    rep = glue_reps(rep1, args.boundary1, rep2, args.boundary2, twist, tol)
    rpt = Report(args.json)
    rpt.add("status", "ok")
    rpt.add("surface", f"genus {rep.genus}, boundaries {rep.m}")
    rpt.add("relation residual", f"{rep.relation_residual:.6e}")
    rpt.emit()
    if args.out:
        with open(args.out, "w") as fh:
            write_rep_file(rep, fh)
    return 0


def cmd_deform(args) -> int:
    tol = _tolerance(args)
    graph = parse_graph_file(args.file, args.strict)
    path = deform_to_standard(graph, steps=args.steps, tol=tol)
    rpt = Report(args.json)
    rpt.add("status", "ok")
    rpt.add("snapshots", len(path))
    rpt.add("signature", "(" + ", ".join("+" if s > 0 else "-" for s in path.signature) + ")")
    rpt.emit()
    if args.out:
        with open(args.out, "w") as fh:
            for i, snap in enumerate(path.snapshots):
                fh.write(f"# snapshot {i}\n")
                write_graph_file(snap, fh)
                fh.write("\n")
    return 0


def cmd_limits(args) -> int:
    tol = _tolerance(args)
    graph = parse_graph_file(args.file, args.strict)
    rep = build_from_graph(graph, tol)
    sample = limit_set_sample(rep, max_word_length=args.max_word_length,
                              tol=tol, seed=args.seed)
    rpt = Report(args.json)
    rpt.add("status", "ok")
    rpt.add("words sampled", len(sample.points))
    rpt.add("words skipped", sample.skipped_words)
    rpt.add("distinct points", len(sample.distinct_points))
    rpt.add("transverse fraction", f"{sample.transverse_fraction:.6f}")
    rpt.add("beta histogram",
            " ".join(f"{k}:{v}" for k, v in sorted(sample.beta_histogram.items())))
    for f in sample.findings:
        rpt.add("finding", f)
    rpt.emit()
    if args.out:
        with open(args.out, "w") as fh:
            fh.write("maxrep-limits 1\n")
            for word, pt in sample.points:
                fh.write(f"word {word}\n")
                if pt.is_infinity:
                    fh.write("  inf\n")
                else:
                    fh.write(_format_matrix(pt.value) + "\n")
    return 0


# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="maxrep",
        description="maximal surface-group representations into Sp(2n, R)")
    sub = top.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--tol", type=float, default=None,
                       help="relative comparison tolerance, finite and > 0 (default 1e-9)")
        p.add_argument("--json", action="store_true", help="structured output")
        p.add_argument("--strict", action="store_true",
                       help="reject numbers that do not round-trip exactly")

    p = sub.add_parser("build", help="build a representation from a graph file")
    p.add_argument("file")
    p.add_argument("--out", help="write generator images to this file")
    common(p)
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("verify", help="verify a graph or generator-image file")
    p.add_argument("file")
    common(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("toledo", help="characteristic numbers per pants node")
    p.add_argument("file")
    common(p)
    p.set_defaults(func=cmd_toledo)

    p = sub.add_parser("maslov", help="index of a three-point file")
    p.add_argument("file")
    common(p)
    p.set_defaults(func=cmd_maslov)

    p = sub.add_parser("components", help="component signature of a graph")
    p.add_argument("file")
    common(p)
    p.set_defaults(func=cmd_components)

    p = sub.add_parser("glue", help="glue two built graphs along boundaries")
    p.add_argument("file1")
    p.add_argument("boundary1")
    p.add_argument("file2")
    p.add_argument("boundary2")
    p.add_argument("--twist-file", required=True)
    p.add_argument("--out")
    common(p)
    p.set_defaults(func=cmd_glue)

    p = sub.add_parser("deform", help="deform a graph to its standard representative")
    p.add_argument("file")
    p.add_argument("--steps", type=int, default=100)
    p.add_argument("--out")
    common(p)
    p.set_defaults(func=cmd_deform)

    p = sub.add_parser("limits", help="sample the limit set of a built graph")
    p.add_argument("file")
    p.add_argument("--max-word-length", type=int, default=4)
    p.add_argument("--seed", type=int, default=0, help="seed of the sampled triples")
    p.add_argument("--out")
    common(p)
    p.set_defaults(func=cmd_limits)

    return top


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        # an overflow ends in a NumericalBreakdown from check_finite, not in
        # floating-point warnings
        with np.errstate(over="ignore", invalid="ignore"):
            return args.func(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return PARSE_ERROR
    except MathematicalRefusal as exc:
        print(f"refused: {type(exc).__name__}: {exc}", file=sys.stderr)
        return REFUSAL
    except NumericalBreakdown as exc:
        print(f"numerical breakdown: {type(exc).__name__}: {exc}", file=sys.stderr)
        return BREAKDOWN
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return PARSE_ERROR


if __name__ == "__main__":
    sys.exit(main())
