"""Standard representatives and deformation paths.

Every connected component of the parameter space contains a standard
representative whose length parameters are diag(+-1/2, 1/2, ..., 1/2) and
whose twist parameters are diag(+-1, 1, ..., 1).  Deformation retracts the
free parameters of a chain-shaped gluing graph onto those values along
paths that keep every snapshot a valid maximal parameter set and never move
a determinant sign.

Chain shape means: the first node is a plain pants or a handle block (self
edge on ports 1 and 3), and every later node is a plain pants whose port 1
attaches to a boundary of the prefix.  This covers all standard
decompositions produced by :func:`standard_sign_graph`.
"""

from __future__ import annotations

import itertools
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .errors import GraphInvalid, MaxRepError, NotMaximal, NotValid
from .gluing import (
    GluingGraph,
    GraphBoundary,
    GraphEdge,
    PantsNode,
    SurfaceRep,
    _gluing_plan,
    _loop_twist,
    build_from_graph,
    component_signature,
    slot_glue_length,
)
from .matcore import DEFAULT_TOL, Tolerance, _real_schur, as_matrix, check_finite, sym_part
from .pants import PantsParams, ParamClass, _check_stack

__all__ = [
    "standard_length",
    "standard_twist",
    "standard_sign_graph",
    "enumerate_standard_graphs",
    "DeformationPath",
    "deform_to_standard",
]

_RHO_CAP = 0.95  # spectral-radius ceiling enforced along deformation paths


def standard_length(n: int, sign: int) -> np.ndarray:
    """diag(sign * 1/2, 1/2, ..., 1/2)."""
    d = np.full(n, 0.5)
    d[0] *= sign
    return np.diag(d)


def standard_twist(n: int, sign: int) -> np.ndarray:
    """diag(sign * 1, 1, ..., 1)."""
    d = np.ones(n)
    d[0] *= sign
    return np.diag(d)


# ---------------------------------------------------------------------------
# standard graphs per sign pattern


def _chain_plan(genus: int, m: int) -> list[str]:
    """Block sequence of the standard decomposition: base then attachments."""
    if m < 1:
        raise GraphInvalid("standard graphs require at least one boundary")
    if genus == 0:
        if m < 3:
            raise GraphInvalid("a genus-zero surface needs at least three boundaries")
        return ["pants"] + ["pants"] * (m - 3)
    if genus == 1:
        return ["handle"] + ["pants"] * (m - 1)
    raise GraphInvalid("standard graphs implemented for genus 0 and 1")


def standard_sign_graph(genus: int, m: int, n: int, signs: tuple[int, ...]) -> GluingGraph:
    """The standard representative with prescribed component signature.

    signs lists, in order, (handle length sign, handle twist sign) for the
    handle when genus is 1, then one sign per boundary except the last.
    Length 2 * genus + m - 1 as for component signatures.
    """
    plan = _chain_plan(genus, m)
    expected = 2 * genus + m - 1
    if len(signs) != expected:
        raise ValueError(f"need {expected} signs for type ({genus}, {m})")
    if any(s not in (-1, 1) for s in signs):
        raise ValueError("signs must be +-1")
    signs = list(signs)

    nodes: list[PantsNode] = []
    edges: list[GraphEdge] = []
    boundaries: list[GraphBoundary] = []
    half = 0.5 * np.eye(n)

    if plan[0] == "handle":
        s_len, s_tw = signs.pop(0), signs.pop(0)
        x1 = standard_length(n, s_len)
        h = standard_twist(n, s_tw)
        # derived middle length for S = I/2 is +I/2; third is H X1^T H^{-1} = X1
        nodes.append(PantsNode("p0", PantsParams(x1, half, x1)))
        edges.append(GraphEdge(upper=("p0", 3), lower=("p0", 1), twist=h))
        open_port = ("p0", 2)
        open_len = -half  # glue length of slot 2
    else:
        s1 = signs.pop(0)
        s2 = signs.pop(0)
        x1 = standard_length(n, s1)
        x2 = standard_length(n, s2)
        x3 = standard_length(n, s1 * s2)
        nodes.append(PantsNode("p0", PantsParams(x1, x2, x3)))
        boundaries.append(GraphBoundary(("p0", 1), "C1"))
        boundaries.append(GraphBoundary(("p0", 2), "C2"))
        open_port = ("p0", 3)
        open_len = x3

    for k, _ in enumerate(plan[1:], start=1):
        s = signs.pop(0)
        name = f"p{k}"
        g_tw = standard_twist(n, 1)
        x1 = open_len.T  # twist is the identity-signed standard matrix
        x2 = standard_length(n, s)
        x3 = half @ np.linalg.inv(x1) @ x2.T
        nodes.append(PantsNode(name, PantsParams(x1, x2, x3)))
        edges.append(GraphEdge(upper=open_port, lower=(name, 1), twist=g_tw))
        boundaries.append(GraphBoundary((name, 2), f"C{len(boundaries) + 1}"))
        open_port = (name, 3)
        open_len = x3
    boundaries.append(GraphBoundary(open_port, f"C{len(boundaries) + 1}"))
    assert not signs
    return GluingGraph(tuple(nodes), tuple(edges), tuple(boundaries))


def enumerate_standard_graphs(genus: int, m: int, n: int):
    """All 2^(2g + m - 1) standard representatives for a surface type."""
    k = 2 * genus + m - 1
    for signs in itertools.product((1, -1), repeat=k):
        yield signs, standard_sign_graph(genus, m, n, signs)


# ---------------------------------------------------------------------------
# continuous paths in the matrix groups


def _so_log(u: np.ndarray) -> np.ndarray:
    """Real skew logarithm of a special orthogonal matrix.

    The real Schur form of an orthogonal matrix is quasi-diagonal: rotation
    blocks give their angles, +1 entries give zero, and -1 entries pair up
    into half-turn planes (an even count because the determinant is one).
    """
    n = u.shape[0]
    t, q, _ = _real_schur(u)
    k = np.zeros((n, n))
    minus_ones = []
    i = 0
    while i < n:
        if i + 1 < n and abs(t[i + 1, i]) > 1e-12:
            theta = np.arctan2(t[i + 1, i], t[i, i])
            k[i, i + 1] = -theta
            k[i + 1, i] = theta
            i += 2
        else:
            if t[i, i] < 0:
                minus_ones.append(i)
            i += 1
    for a, b in zip(minus_ones[0::2], minus_ones[1::2]):
        k[a, b] = -np.pi
        k[b, a] = np.pi
    return q @ k @ q.T


def _mt(x: np.ndarray) -> np.ndarray:
    """Transpose of a matrix, or of each matrix in a stack."""
    return np.swapaxes(x, -1, -2)


def _polar(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    u, s, vh = np.linalg.svd(m)
    return u @ vh, (vh.T * s) @ vh


def invertible_path(m: np.ndarray, t) -> np.ndarray:
    """Path in the invertible matrices from m (t=0) to diag(sign det m, 1, ..)
    (t=1), through the polar decomposition; the determinant never changes sign.

    t is a scalar or a 1-D array of times; an array gives the stack of the
    path's matrices at those times.  m is decomposed once, and only the
    eigenvalues of its factors depend on t.
    """
    m = as_matrix(m)
    ts = np.atleast_1d(np.asarray(t, dtype=float))
    n = m.shape[0]
    sign = 1 if np.linalg.det(m) > 0 else -1
    target = standard_twist(n, sign)
    if np.max(np.abs(m - target)) <= 1e-12:
        path = np.repeat(m[None], ts.size, axis=0)
    else:
        u, p = _polar(target @ m)  # det > 0
        # exp((1 - t) log u) and p^(1 - t) from one eigh each
        w, v = np.linalg.eigh(1j * _so_log(u))
        rot = np.einsum("ij,tj,kj->tik", v, np.exp(-1j * np.multiply.outer(1.0 - ts, w)), v.conj())
        w, v = np.linalg.eigh(sym_part(p))
        w = np.maximum(w, np.finfo(float).tiny) ** (1.0 - ts)[:, None]
        path = target @ np.real(rot) @ np.einsum("ij,tj,kj->tik", v, w, v)
    return path if np.ndim(t) else path[0]


def contracting_path(m: np.ndarray, t) -> np.ndarray:
    """Path inside the open contraction cone from m to diag(s/2, 1/2, ...).

    Three stages: shrink to a scale where the polar path cannot leave the
    cone, carry the shape to the signed reflection there, then grow onto the
    standard length matrix.  Spectral radius stays below max(radius(m), 1/2)
    + margin and the determinant sign is constant throughout.  t is a scalar
    or a 1-D array of times, as for invertible_path; the stages are picked
    per time.
    """
    m = as_matrix(m)
    ts = np.atleast_1d(np.asarray(t, dtype=float))
    n = m.shape[0]
    sign = 1 if np.linalg.det(m) > 0 else -1
    end = standard_length(n, sign)
    if np.max(np.abs(m - end)) <= 1e-12:
        path = np.repeat(m[None], ts.size, axis=0)
    else:
        r = standard_twist(n, sign)
        _, p = _polar(r @ m)
        eps = 0.4 / max(1.0, float(np.max(np.linalg.eigvalsh(p))))
        shrink, grow = ts <= 1 / 3, ts > 2 / 3
        turn = ~(shrink | grow)
        path = np.empty((ts.size, n, n))
        path[shrink] = (1.0 - 3 * ts[shrink, None, None] * (1.0 - eps)) * m
        path[turn] = eps * invertible_path(m, 3 * ts[turn] - 1)
        u = 3 * ts[grow, None, None] - 2
        path[grow] = (1 - u) * (eps * r) + u * end
    return path if np.ndim(t) else path[0]


def spd_path(s0: np.ndarray, s1: np.ndarray, t) -> np.ndarray:
    """Linear path in the positive cone; t is a scalar or a 1-D array."""
    ts = np.asarray(t, dtype=float)[..., None, None]
    return sym_part((1 - ts) * as_matrix(s0) + ts * as_matrix(s1))


# ---------------------------------------------------------------------------
# deformation of chain graphs


def _analyze_chain(graph: GluingGraph) -> tuple[GraphEdge | None, list[GraphEdge]]:
    """(the self edge of the first node or None, the edge attaching each
    later node in node order), or GraphInvalid when the graph is not
    chain-shaped."""
    self_edges, attach_edges, closures = _gluing_plan(graph)
    if set(self_edges) - {graph.nodes[0].name}:
        raise GraphInvalid("deformation supports at most one handle, on the first node")
    if closures:
        raise GraphInvalid("extra internal edges; not a chain-shaped graph")
    for node, e in zip(graph.nodes[1:], attach_edges):
        if e.lower != (node.name, 1):
            raise GraphInvalid(
                f"node {node.name!r} must attach through its port 1 to the prefix")
    return self_edges.get(graph.nodes[0].name), attach_edges


@dataclass(frozen=True)
class DeformationPath:
    """Snapshots of a deformation, each a full gluing graph."""

    snapshots: tuple[GluingGraph, ...]
    signature: tuple[int, ...]

    def __len__(self):
        return len(self.snapshots)


def _cap_contracting(m: np.ndarray, cap: float = _RHO_CAP) -> np.ndarray:
    """Each matrix of the stack m, scaled down onto spectral radius cap when
    its radius is larger."""
    rho = np.abs(np.linalg.eigvals(check_finite(m))).max(axis=-1)
    return (cap / np.maximum(rho, cap))[:, None, None] * m


# a node's length parameters at every time, each of shape (k, n, n)
_NodeStacks = namedtuple("_NodeStacks", "X1 X2 X3")


def _snapshot_stacks(graph: GluingGraph, loop: GraphEdge | None, attach_edges: list[GraphEdge],
                     ts: np.ndarray) -> tuple[dict[str, _NodeStacks], dict[int, np.ndarray]]:
    """Each node's lengths and each edge's twist at the times ts, as stacks
    over the times, built in chain order; twists are keyed by id of the edge."""
    n = graph.n
    inv = np.linalg.inv
    half = 0.5 * np.eye(n)
    params0 = {nd.name: nd.params for nd in graph.nodes}
    stacks: dict[str, _NodeStacks] = {}
    twists: dict[int, np.ndarray] = {}

    base_node = graph.nodes[0].name
    base = params0[base_node]
    if loop is None:
        x2 = contracting_path(base.X2, ts)
        x3 = contracting_path(base.X3, ts)
        s = spd_path(sym_part(base.X3 @ inv(base.X2.T) @ base.X1), half, ts)
        x1 = _cap_contracting(inv(x3 @ inv(_mt(x2))) @ s)
    else:
        h0 = _loop_twist(loop.twist, loop.upper[1])
        x1 = contracting_path(base.X1, ts)
        h = invertible_path(h0, ts)
        s0 = sym_part(base.X1.T @ inv(base.X2) @ inv(h0.T) @ base.X1 @ h0.T)
        s = spd_path(s0, half, ts)
        x2 = _cap_contracting((inv(_mt(h)) @ x1 @ _mt(h)) @ inv(s) @ _mt(x1))
        x3 = h @ _mt(x1) @ inv(h)
        twists[id(loop)] = _loop_twist(h, loop.upper[1])
    stacks[base_node] = _NodeStacks(x1, x2, x3)

    for edge in attach_edges:
        name, host = edge.lower[0], edge.upper
        p0 = params0[name]
        g = invertible_path(edge.twist, ts)
        x1 = _mt(inv(g) @ slot_glue_length(stacks[host[0]], host[1]) @ g)
        x2 = contracting_path(p0.X2, ts)
        s = spd_path(sym_part(p0.X3 @ inv(p0.X2.T) @ p0.X1), half, ts)
        x3 = _cap_contracting(s @ inv(x1) @ _mt(x2))
        stacks[name] = _NodeStacks(x1, x2, x3)
        twists[id(edge)] = g
    return stacks, twists


def deform_to_standard(rep_or_graph, steps: int = 100,
                       tol: Tolerance = DEFAULT_TOL) -> DeformationPath:
    """Deform a chain-shaped maximal representation onto its standard form.

    Returns steps + 1 parameter snapshots at the times t = i / steps; the
    first is the input, the last the standard representative of its
    component.  Along the way every node stays a valid maximal parameter set
    and the component signature never changes.  All times are computed in
    one pass (the path functions take t as an array), and validity is
    re-checked here once per node over the stack of its snapshots; callers
    get an exception naming the first failing snapshot and node, not a bad
    path.  Snapshot arrays are read-only views.  steps must be at least 1.
    """
    if steps < 1:
        raise ValueError(f"steps must be at least 1, got {steps}")
    rep = rep_or_graph if isinstance(rep_or_graph, SurfaceRep) else None
    graph = rep_or_graph if rep is None else rep.graph
    if graph is None:
        raise NotMaximal("representation carries no gluing graph to deform")
    loop, attach_edges = _analyze_chain(graph)
    # a graph's build is the only check that its edges are compatible; the
    # snapshots recompute attached lengths from the twists, so an incompatible
    # input would come back as a path whose first snapshot is not the input.
    # A representation was built from its graph already.
    sig = component_signature(build_from_graph(graph, tol) if rep is None else rep, tol)
    stacks, twists = _snapshot_stacks(graph, loop, attach_edges, np.arange(steps + 1) / steps)
    checked = [_check_stack(np.array(stacks[nd.name]), tol) for nd in graph.nodes]
    bad = [(i, j) for j, (classes, sigs) in enumerate(checked)
           for i, (c, s) in enumerate(zip(classes, sigs))
           if c not in (ParamClass.IN_R, ParamClass.IN_R_STAR) or s != graph.n]
    if bad:  # refuse the first failure by snapshot, then by node
        i, j = min(bad)
        name, cls, node_sig = graph.nodes[j].name, checked[j][0][i], checked[j][1][i]
        if isinstance(cls, MaxRepError):
            raise type(cls)(f"snapshot {i} at node {name!r}: {cls}")
        if cls in (ParamClass.NOT_VALID, ParamClass.IN_TILDE_R):
            raise NotValid(f"snapshot {i} leaves the valid cone at node {name!r} ({cls})")
        if isinstance(node_sig, MaxRepError):
            raise type(node_sig)(f"snapshot {i} at node {name!r}: {node_sig}")
        raise NotMaximal(f"snapshot {i} loses maximality at node {name!r}")
    for x in [*itertools.chain(*stacks.values()), *twists.values()]:
        x.flags.writeable = False
    snaps = tuple(
        GluingGraph(
            tuple(PantsNode(nd.name, PantsParams(*(x[i] for x in stacks[nd.name])))
                  for nd in graph.nodes),
            tuple(GraphEdge(e.upper, e.lower, twists[id(e)][i]) for e in graph.edges),
            graph.boundaries)
        for i in range(steps + 1))
    return DeformationPath(snaps, sig)
