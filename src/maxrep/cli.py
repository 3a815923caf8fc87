"""Command-line front end.

Reads human-writable description files for gluing graphs, boundary points and
built representations, runs the library and prints line-oriented
``key: value`` reports (or JSON with --json).

Exit codes: 0 success, 2 parse error (an unreadable or malformed file, or a
bad argument), 3 mathematical refusal (the requested object does not exist),
4 numerical breakdown (tolerances could not decide); with --json a refusal also
prints its status, class, message, stage, measured value and bound.
The environment variable MAXREP_TOL overrides the relative comparison
tolerance; --seed (limits only) seeds the limit-set sampler.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from fractions import Fraction

import numpy as np

from .deform import deform_to_standard
from .errors import GraphInvalid, MathematicalRefusal, NumericalBreakdown
from .gluing import (
    GluingGraph,
    GraphBoundary,
    GraphEdge,
    PantsNode,
    SurfaceRep,
    _surface_fault,
    build_from_graph,
    component_signature,
    glue_graphs,
)
from .limits import limit_set_sample
from .maslov import Triple, maslov
from .matcore import DEFAULT_TOL, Tolerance
from .pants import PantsParams, _build_maximal_stack, toledo
from .symplectic import (
    INFINITY,
    BoundaryPoint,
    SpMat,
    _symplectic_defects,
    finite_point,
    identity_point,
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
    """The non-blank lines of one input file, comments stripped.

    With a kind the first line must be the header 'maxrep-KIND 1'; without
    one the file is headerless (a twist file).
    """

    def __init__(self, path: str, kind: str | None = None):
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
        self.n: int | None = None
        if kind is not None:
            line_no, header = self.next()
            if header.split() != [f"maxrep-{kind}", "1"]:
                raise ParseError(f"expected header 'maxrep-{kind} 1'", line_no)

    def next(self) -> tuple[int, str]:
        if self.pos >= len(self.lines):
            raise ParseError("unexpected end of file")
        self.pos += 1
        return self.lines[self.pos - 1]

    def expect(self, word: str):
        line_no, body = self.next()
        if body != word:
            raise ParseError(f"expected {word!r}", line_no)

    def directives(self, sized: tuple[str, ...], other: tuple[str, ...] = ()):
        """(line number, tokens) of each directive line after the header.

        Reads 'n' itself, once; a directive in sized reads n-sized matrices,
        so 'n' must come before it.  Any other directive is an error.
        """
        while self.pos < len(self.lines):
            line_no, body = self.next()
            toks = body.split()
            if toks[0] == "n":
                if self.n is not None:
                    raise ParseError("'n' may be given only once", line_no)
                self.n, = _directive_values(toks, line_no, int)
                if self.n < 1:
                    raise ParseError("'n' must be at least 1", line_no)
            elif toks[0] not in sized + other:
                raise ParseError(f"unknown directive {toks[0]!r}", line_no)
            elif toks[0] in sized and self.n is None:
                raise ParseError(f"'n' must come before {toks[0]}s", line_no)
            else:
                yield line_no, toks

    def matrix(self, size: int, strict: bool, end: bool = True) -> np.ndarray:
        """The next size rows of size numbers each, then an 'end' line if end."""
        rows = []
        for _ in range(size):
            line_no, body = self.next()
            toks = body.split()
            if len(toks) != size:
                raise ParseError(f"expected {size} entries, got {len(toks)}", line_no)
            rows.append([_parse_float(t, line_no, strict) for t in toks])
        if end:
            self.expect("end")
        return np.array(rows)


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


def _directive_values(toks: list[str], line: int, *types) -> list:
    """The values of a directive line, one converted by each of types."""
    if len(toks) != len(types) + 1:
        raise ParseError(f"'{toks[0]}' takes {len(types)} value(s), got {len(toks) - 1}",
                         line)
    try:
        return [convert(t) for convert, t in zip(types, toks[1:])]
    except ValueError:
        raise ParseError(f"bad value for '{toks[0]}': {' '.join(toks[1:])!r}", line)


def _format_matrix(m, indent: str = "  ") -> str:
    # repr of a Python float prints the shortest round-tripping decimal
    return "\n".join(indent + " ".join(map(repr, row))
                     for row in np.asarray(m, dtype=float).tolist())


# ---------------------------------------------------------------------------
# graph files


def parse_graph_file(path: str, strict: bool = False) -> GluingGraph:
    reader = _Reader(path, "graph")
    declared = None
    nodes: list[PantsNode] = []
    edges: list[GraphEdge] = []
    boundaries: list[GraphBoundary] = []
    for line_no, toks in reader.directives(("node", "edge"), ("surface", "boundary")):
        if toks[0] == "surface":
            declared = tuple(_directive_values(toks, line_no, int, int))
        elif toks[0] == "node":
            name, = _directive_values(toks, line_no, str)
            mats = []
            for want in ("X1", "X2", "X3"):
                reader.expect(want)
                mats.append(reader.matrix(reader.n, strict, end=want == "X3"))
            nodes.append(PantsNode(name, PantsParams(*mats)))
        elif toks[0] == "edge":
            up, up_port, lo, lo_port = _directive_values(toks, line_no, str, int, str, int)
            twist = reader.matrix(reader.n, strict)
            edges.append(GraphEdge((up, up_port), (lo, lo_port), twist))
        else:
            node, port, label = _directive_values(toks, line_no, str, int, str)
            boundaries.append(GraphBoundary((node, port), label))
    graph = GluingGraph(tuple(nodes), tuple(edges), tuple(boundaries))
    gm = graph.surface_type()
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
        fh.write(_format_matrix(e.twist) + "\nend\n")
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
    reader = _Reader(path, "rep")
    genus = m = None
    gens: dict[str, np.ndarray] = {}
    for line_no, toks in reader.directives(("generator",), ("surface",)):
        if toks[0] == "surface":
            genus, m = _directive_values(toks, line_no, int, int)
            if min(genus, m) < 0:
                raise ParseError("genus and boundary count must be at least 0", line_no)
        else:
            name, = _directive_values(toks, line_no, str)
            gens[name] = reader.matrix(2 * reader.n, strict)
    if reader.n is None or genus is None:
        raise ParseError("rep file must declare n and surface")
    names = [f"{x}{i}" for x in "AB" for i in range(1, genus + 1)] \
        + [f"C{j}" for j in range(1, m + 1)]
    missing = [name for name in names if name not in gens]
    if missing:
        raise ParseError(f"rep file lacks generators {' '.join(missing)}")
    return reader.n, genus, m, gens


# ---------------------------------------------------------------------------
# point files


def parse_points_file(path: str, strict: bool = False) -> tuple[int, list[BoundaryPoint]]:
    reader = _Reader(path, "points")
    pts: list[BoundaryPoint] = []
    for line_no, toks in reader.directives(("point",)):
        n = reader.n
        if len(toks) == 1:
            mat = reader.matrix(n, strict, end=False)
            try:
                pts.append(finite_point(mat))
            except ValueError as exc:   # not symmetric
                raise ParseError(str(exc), line_no)
        else:
            name, = _directive_values(toks, line_no, str)
            named = {"inf": INFINITY, "zero": zero_point(n), "identity": identity_point(n)}
            if name not in named:
                raise ParseError(f"unknown named point {name!r}", line_no)
            pts.append(named[name])
    return reader.n, pts


# ---------------------------------------------------------------------------
# commands: each takes the parsed arguments and the tolerance and returns its
# report as (key, value) pairs


def _tolerance(args) -> Tolerance:
    env = os.environ.get("MAXREP_TOL")
    try:
        eq = float(env) if env else DEFAULT_TOL.eq_tol
    except ValueError:
        raise ParseError(f"MAXREP_TOL must be a number, got {env!r}")
    if args.tol is not None:
        eq = args.tol
    if not (math.isfinite(eq) and eq > 0):
        raise ParseError(f"tolerance must be finite and greater than 0, got {eq!r}")
    return Tolerance(eq_tol=eq)


def _write_out(path: str | None, write):
    """Write the --out file, when one is asked for, with write(fh)."""
    if path:
        with open(path, "w") as fh:
            write(fh)


def _signs(sig) -> str:
    return "(" + ", ".join("+" if s > 0 else "-" for s in sig) + ")"


def _describe_build(rep: SurfaceRep) -> list:
    """The report of a graph build, read off the build's own membership check."""
    report = [("status", "ok"), ("surface", f"genus {rep.genus}, boundaries {rep.m}"), ("n", rep.n)]
    for i, nd in enumerate(rep.graph.nodes):
        cls, sig = rep.node_checks[i]
        report.append((f"node {nd.name} class", cls.value))
        report.append((f"node {nd.name} toledo", str(Fraction(rep.n + sig, 2))))
    return report + [("relation residual", f"{rep.relation_residual:.6e}")]


def cmd_build(args, tol: Tolerance) -> list:
    graph = parse_graph_file(args.file, args.strict)
    rep = build_from_graph(graph, tol)
    _write_out(args.out, lambda fh: write_rep_file(rep, fh))
    return _describe_build(rep) \
        + [("generators", " ".join(rep.generator_images().keys()))]


def cmd_verify(args, tol: Tolerance) -> list:
    lines = _Reader(args.file).lines
    if lines and lines[0][1].startswith("maxrep-graph"):
        return _describe_build(build_from_graph(parse_graph_file(args.file, args.strict), tol))
    n, genus, m, gens = parse_rep_file(args.file, args.strict)
    residuals = dict(zip(gens, _symplectic_defects(np.array(list(gens.values()))).max(axis=-1).tolist()))
    a, b, c = ([SpMat(gens[f"{x}{i}"]) for i in range(1, k + 1)]
               for x, k in (("A", genus), ("B", genus), ("C", m)))
    rel, fault = _surface_fault(n, a, b, c, tol)
    return [(f"generator {name} symplectic residual", f"{res:.6e}")
            for name, res in residuals.items()] \
        + [("relation residual", f"{rel:.6e}"), ("status", "suspect" if fault else "ok")]


def cmd_toledo(args, tol: Tolerance) -> list:
    graph = parse_graph_file(args.file, args.strict)
    report, total = [], Fraction(0)
    # one membership check for every node gives both routes
    _, sigs, reps = _build_maximal_stack(np.array([nd.params.matrices() for nd in graph.nodes]), tol)
    tr = Triple(zero_point(graph.n), identity_point(graph.n), INFINITY)
    for i, nd in enumerate(graph.nodes):
        t_short = Fraction(graph.n + sigs[i], 2)
        t_index = toledo(reps[i], tr, tol=tol)
        report.append((f"node {nd.name} T (signature route)", str(t_short)))
        report.append((f"node {nd.name} T (index route)", str(t_index)))
        total += t_short
    return report + [("T", str(total))]


def cmd_maslov(args, tol: Tolerance) -> list:
    n, pts = parse_points_file(args.file, args.strict)
    if len(pts) != 3:
        raise ParseError(f"need exactly three points, got {len(pts)}")
    return [("n", n), ("maslov", maslov(Triple(*pts), tol))]


def cmd_components(args, tol: Tolerance) -> list:
    graph = parse_graph_file(args.file, args.strict)
    sig = component_signature(build_from_graph(graph, tol), tol)
    g, m = graph.surface_type()
    return [("surface", f"genus {g}, boundaries {m}"), ("signature", _signs(sig)),
            ("components", f"2^{2 * g + m - 1} = {2 ** (2 * g + m - 1)}")]


def cmd_glue(args, tol: Tolerance) -> list:
    graph1 = parse_graph_file(args.file1, args.strict)
    graph2 = parse_graph_file(args.file2, args.strict)
    if graph1.n != graph2.n:
        raise ParseError(f"cannot glue files of different n: {args.file1} has n {graph1.n}, "
                         f"{args.file2} has n {graph2.n}")
    for path, graph, label in ((args.file1, graph1, args.boundary1),
                               (args.file2, graph2, args.boundary2)):
        if label not in {b.label for b in graph.boundaries}:
            raise ParseError(f"{path} has no boundary labelled {label!r}")
    reader = _Reader(args.twist_file)
    twist = reader.matrix(graph1.n, args.strict, end=False)
    if reader.pos < len(reader.lines):
        raise ParseError("expected end of file after the twist matrix",
                         reader.lines[reader.pos][0])
    try:
        # what the glued graph refuses, such as colliding labels, is bad input
        graph = glue_graphs(graph1, args.boundary1, graph2, args.boundary2, twist)
    except GraphInvalid as exc:
        raise ParseError(str(exc)) from None
    rep = build_from_graph(graph, tol)
    _write_out(args.out, lambda fh: write_rep_file(rep, fh))
    return [("status", "ok"), ("surface", f"genus {rep.genus}, boundaries {rep.m}"),
            ("relation residual", f"{rep.relation_residual:.6e}")]


def cmd_deform(args, tol: Tolerance) -> list:
    graph = parse_graph_file(args.file, args.strict)
    if args.steps < 1:
        raise ParseError(f"steps must be at least 1, got {args.steps}")
    path = deform_to_standard(graph, steps=args.steps, tol=tol)

    def write(fh):
        for i, snap in enumerate(path.snapshots):
            write_graph_file(snap, fh, f"snapshot {i}")
            fh.write("\n")

    _write_out(args.out, write)
    return [("status", "ok"), ("snapshots", len(path)), ("signature", _signs(path.signature))]


def cmd_limits(args, tol: Tolerance) -> list:
    graph = parse_graph_file(args.file, args.strict)
    if args.max_word_length < 1:
        raise ParseError(f"max_word_length must be at least 1, got {args.max_word_length}")
    rep = build_from_graph(graph, tol)
    sample = limit_set_sample(rep, max_word_length=args.max_word_length,
                              tol=tol, seed=args.seed)

    def write(fh):
        fh.write("maxrep-limits 1\n")
        for word, pt in sample.points:
            fh.write(f"word {word}\n")
            fh.write("  inf\n" if pt.is_infinity else _format_matrix(pt.value) + "\n")

    _write_out(args.out, write)
    histogram = sorted(sample.beta_histogram.items())
    return [("status", "ok"), ("words sampled", len(sample.points)),
            ("words skipped", sample.skipped_words),
            ("distinct points", len(sample.distinct_points)),
            ("transverse fraction", f"{sample.transverse_fraction:.6f}"),
            ("beta histogram", " ".join(f"{k}:{v}" for k, v in histogram)),
            *(("finding", f) for f in sample.findings)]


# ---------------------------------------------------------------------------


# built once per process: parse_args reads the parser and leaves it unchanged
@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="maxrep",
        description="maximal surface-group representations into Sp(2n, R)")
    sub = top.add_subparsers(dest="command", required=True)

    def command(name, func, help, files, *options):
        p = sub.add_parser(name, help=help)
        for f in files:
            p.add_argument(f)
        for flag, kw in options:
            p.add_argument(flag, **kw)
        p.add_argument("--tol", type=float, default=None,
                       help="relative comparison tolerance, finite and > 0 (default 1e-9)")
        p.add_argument("--json", action="store_true", help="structured output")
        p.add_argument("--strict", action="store_true",
                       help="reject numbers that do not round-trip exactly")
        p.set_defaults(func=func)

    out = ("--out", {})
    command("build", cmd_build, "build a representation from a graph file", ["file"],
            ("--out", dict(help="write generator images to this file")))
    command("verify", cmd_verify, "verify a graph or generator-image file", ["file"])
    command("toledo", cmd_toledo, "characteristic numbers per pants node", ["file"])
    command("maslov", cmd_maslov, "index of a three-point file", ["file"])
    command("components", cmd_components, "component signature of a graph", ["file"])
    command("glue", cmd_glue, "glue two built graphs along boundaries",
            ["file1", "boundary1", "file2", "boundary2"],
            ("--twist-file", dict(required=True)), out)
    command("deform", cmd_deform, "deform a graph to its standard representative", ["file"],
            ("--steps", dict(type=int, default=100)), out)
    command("limits", cmd_limits, "sample the limit set of a built graph", ["file"],
            ("--max-word-length", dict(type=int, default=4)),
            ("--seed", dict(type=int, default=0, help="seed of the sampled triples")), out)
    return top


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        # an overflow ends in a NumericalBreakdown from check_finite, not in
        # floating-point warnings
        with np.errstate(over="ignore", invalid="ignore"):
            report = args.func(args, _tolerance(args))
    except (ParseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return PARSE_ERROR
    except (MathematicalRefusal, NumericalBreakdown) as exc:
        status = "refused" if isinstance(exc, MathematicalRefusal) else "numerical breakdown"
        print(f"{status}: {type(exc).__name__}: {exc}", file=sys.stderr)
        if args.json:
            # JSON has no inf or nan: a non-finite measured value prints as its string
            measured = exc.measured if exc.measured is None or np.isfinite(exc.measured) else str(exc.measured)
            print(json.dumps({"status": status, "error": type(exc).__name__, "message": str(exc),
                              "stage": exc.stage, "measured": measured, "bound": exc.bound}, indent=2))
        return REFUSAL if status == "refused" else BREAKDOWN
    if args.json:
        print(json.dumps(dict(report), indent=2, default=str))
    else:
        for key, value in report:
            print(f"{key}: {value}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
