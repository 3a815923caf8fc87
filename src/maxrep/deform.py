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
from dataclasses import dataclass

import numpy as np
from scipy.linalg import schur

from .errors import GraphInvalid, NotMaximal, NotValid
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
from .matcore import DEFAULT_TOL, Tolerance, as_matrix, spectral_radius, sym_part
from .pants import PantsParams, ParamClass, classify_params, toledo_signature_shortcut

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
    t, q = schur(u, output="real")
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


def _expm_skew(k: np.ndarray) -> np.ndarray:
    w, v = np.linalg.eigh(1j * k)
    return np.real(v @ np.diag(np.exp(-1j * w)) @ v.conj().T)


def _spd_power(p: np.ndarray, t: float) -> np.ndarray:
    w, v = np.linalg.eigh(sym_part(p))
    w = np.maximum(w, np.finfo(float).tiny)
    return v @ np.diag(w ** t) @ v.T


def _polar(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    u, s, vh = np.linalg.svd(m)
    return u @ vh, (vh.T * s) @ vh


def invertible_path(m: np.ndarray, t: float) -> np.ndarray:
    """Path in the invertible matrices from m (t=0) to diag(sign det m, 1, ..)
    (t=1), through the polar decomposition; the determinant never changes sign."""
    m = as_matrix(m)
    n = m.shape[0]
    sign = 1 if np.linalg.det(m) > 0 else -1
    target = standard_twist(n, sign)
    if np.max(np.abs(m - target)) <= 1e-12:
        return m.copy()
    mp = target @ m  # det > 0
    u, p = _polar(mp)
    k = _so_log(u)
    return target @ _expm_skew((1.0 - t) * k) @ _spd_power(p, 1.0 - t)


def contracting_path(m: np.ndarray, t: float, *, target_sign: int | None = None) -> np.ndarray:
    """Path inside the open contraction cone from m to diag(s/2, 1/2, ...).

    Three stages: shrink to a scale where the polar path cannot leave the
    cone, carry the shape to the signed reflection there, then grow onto the
    standard length matrix.  Spectral radius stays below max(radius(m), 1/2)
    + margin and the determinant sign is constant throughout.
    """
    m = as_matrix(m)
    n = m.shape[0]
    sign = target_sign if target_sign is not None else (1 if np.linalg.det(m) > 0 else -1)
    if np.max(np.abs(m - standard_length(n, sign))) <= 1e-12:
        return m.copy()
    r = standard_twist(n, sign)
    _, p = _polar(r @ m)
    eps = 0.4 / max(1.0, float(np.max(np.linalg.eigvalsh(p))))
    if t <= 1 / 3:
        u = 3 * t
        return (1.0 - u * (1.0 - eps)) * m
    if t <= 2 / 3:
        u = 3 * t - 1
        return eps * invertible_path(m, u)
    u = 3 * t - 2
    start = eps * r
    end = standard_length(n, sign)
    return (1 - u) * start + u * end


def spd_path(s0: np.ndarray, s1: np.ndarray, t: float) -> np.ndarray:
    """Linear path in the positive cone."""
    return sym_part((1 - t) * as_matrix(s0) + t * as_matrix(s1))


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


def _cap_contracting(m: np.ndarray, cap: float = _RHO_CAP) -> tuple[np.ndarray, float]:
    rho = spectral_radius(m)
    lam = min(1.0, cap / rho) if rho > 0 else 1.0
    return lam * m, lam


def _snapshot_graph(graph: GluingGraph, loop: GraphEdge | None,
                    attach_edges: list[GraphEdge], t: float) -> GluingGraph:
    n = graph.n
    params0 = {nd.name: nd.params for nd in graph.nodes}
    new_params: dict[str, PantsParams] = {}
    new_twists: dict[int, np.ndarray] = {}  # by id of the edge

    base_node = graph.nodes[0].name
    base = params0[base_node]
    if loop is None:
        x2 = contracting_path(base.X2, t)
        x3 = contracting_path(base.X3, t)
        s = spd_path(sym_part(base.X3 @ np.linalg.inv(base.X2.T) @ base.X1), 0.5 * np.eye(n), t)
        x1_raw = np.linalg.inv(x3 @ np.linalg.inv(x2.T)) @ s
        x1, _ = _cap_contracting(x1_raw)
        new_params[base_node] = PantsParams(x1, x2, x3)
    else:
        h0 = _loop_twist(loop.twist, loop.upper[1])
        x1 = contracting_path(base.X1, t)
        h = invertible_path(h0, t)
        s0 = sym_part(base.X1.T @ np.linalg.inv(base.X2) @ np.linalg.inv(h0.T)
                      @ base.X1 @ h0.T)
        s = spd_path(s0, 0.5 * np.eye(n), t)
        x2_raw = (np.linalg.inv(h.T) @ x1 @ h.T) @ np.linalg.inv(s) @ x1.T
        x2, _ = _cap_contracting(x2_raw)
        x3 = h @ x1.T @ np.linalg.inv(h)
        new_params[base_node] = PantsParams(x1, x2, x3)
        new_twists[id(loop)] = _loop_twist(h, loop.upper[1])

    for edge in attach_edges:
        name, host = edge.lower[0], edge.upper
        p0 = params0[name]
        g = invertible_path(edge.twist, t)
        host_params = new_params[host[0]]
        ell_host = slot_glue_length(host_params, host[1])
        x1 = (np.linalg.inv(g) @ ell_host @ g).T
        x2 = contracting_path(p0.X2, t)
        s0 = sym_part(p0.X3 @ np.linalg.inv(p0.X2.T) @ p0.X1)
        s = spd_path(s0, 0.5 * np.eye(n), t)
        x3_raw = s @ np.linalg.inv(x1) @ x2.T
        x3, _ = _cap_contracting(x3_raw)
        new_params[name] = PantsParams(x1, x2, x3)
        new_twists[id(edge)] = g

    nodes = tuple(PantsNode(nd.name, new_params[nd.name]) for nd in graph.nodes)
    edges = tuple(GraphEdge(e.upper, e.lower, new_twists.get(id(e), e.twist))
                  for e in graph.edges)
    return GluingGraph(nodes, edges, graph.boundaries)


def deform_to_standard(rep_or_graph, steps: int = 100,
                       tol: Tolerance = DEFAULT_TOL) -> DeformationPath:
    """Deform a chain-shaped maximal representation onto its standard form.

    Returns steps + 1 parameter snapshots; the first is the input, the last
    the standard representative of its component.  Along the way every node
    stays a valid maximal parameter set and the component signature never
    changes.  Validity of each snapshot is re-checked here; callers get an
    exception, not a bad path.  steps must be at least 1.
    """
    if steps < 1:
        raise ValueError(f"steps must be at least 1, got {steps}")
    graph = rep_or_graph.graph if isinstance(rep_or_graph, SurfaceRep) else rep_or_graph
    if graph is None:
        raise NotMaximal("representation carries no gluing graph to deform")
    loop, attach_edges = _analyze_chain(graph)
    # this build is the only check that the input's edges are compatible; the
    # snapshots recompute attached lengths from the twists, so an incompatible
    # input would come back as a path whose first snapshot is not the input
    sig = component_signature(build_from_graph(graph, tol), tol)
    snaps = []
    for i in range(steps + 1):
        t = i / steps
        snap = _snapshot_graph(graph, loop, attach_edges, t)
        for nd in snap.nodes:
            cls = classify_params(nd.params, tol)
            if cls in (ParamClass.NOT_VALID, ParamClass.IN_TILDE_R):
                raise NotValid(
                    f"snapshot {i} leaves the valid cone at node {nd.name!r} ({cls})")
            if 2 * toledo_signature_shortcut(nd.params, tol) != 2 * nd.params.n:
                raise NotMaximal(f"snapshot {i} loses maximality at node {nd.name!r}")
        snaps.append(snap)
    return DeformationPath(tuple(snaps), sig)
