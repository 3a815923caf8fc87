"""Shared generators for the test suite."""

import numpy as np

import maxrep.gluing
from maxrep.deform import _chain_plan
from maxrep.gluing import GluingGraph, GraphBoundary, GraphEdge, PantsNode, slot_glue_length
from maxrep.pants import PantsParams
from maxrep.sampling import derive_third_length, random_handle_data, random_invertible, random_pants_params
from maxrep.symplectic import SpMat


def chain_graph(genus: int, m: int, n: int, rng: np.random.Generator) -> GluingGraph:
    """Random valid parameters on the standard chain decomposition."""
    plan = _chain_plan(genus, m)
    nodes, edges, boundaries = [], [], []
    if plan[0] == "handle":
        x1, x2, h = random_handle_data(n, rng)
        x3 = h @ x1.T @ np.linalg.inv(h)
        nodes.append(PantsNode("p0", PantsParams(x1, x2, x3)))
        edges.append(GraphEdge(("p0", 3), ("p0", 1), h))
        open_port, open_params, open_slot = ("p0", 2), nodes[0].params, 2
    else:
        p = random_pants_params(n, rng, tame=True)
        nodes.append(PantsNode("p0", p))
        boundaries.append(GraphBoundary(("p0", 1), "C1"))
        boundaries.append(GraphBoundary(("p0", 2), "C2"))
        open_port, open_params, open_slot = ("p0", 3), p, 3
    for k in range(1, len(plan)):
        g_tw = random_invertible(n, rng)
        ell = slot_glue_length(open_params, open_slot)
        x1 = (np.linalg.inv(g_tw) @ ell @ g_tw).T
        x2, x3, _ = derive_third_length(x1, rng)
        params = PantsParams(x1, x2, x3)
        name = f"p{k}"
        nodes.append(PantsNode(name, params))
        edges.append(GraphEdge(open_port, (name, 1), g_tw))
        boundaries.append(GraphBoundary((name, 2), f"C{len(boundaries) + 1}"))
        open_port, open_params, open_slot = (name, 3), params, 3
    boundaries.append(GraphBoundary(open_port, f"C{len(boundaries) + 1}"))
    return GluingGraph(tuple(nodes), tuple(edges), tuple(boundaries))


def patch_nan_twist(monkeypatch):
    """Make every twist element the gluing step forms NaN, as an overflow would."""
    real_twist = maxrep.gluing.twist_element

    def nan_twist(*args, **kwargs):
        return SpMat(np.full_like(real_twist(*args, **kwargs).m, np.nan))

    monkeypatch.setattr(maxrep.gluing, "twist_element", nan_twist)
