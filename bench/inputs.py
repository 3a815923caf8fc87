"""Seeded input generators for the benchmark.

Everything here is built from plain numpy and takes an explicit
``numpy.random.Generator``; nothing imports ``maxrep.sampling`` or the test
suite, so changes there cannot change the inputs.  Graphs are returned as
plain dictionaries and written to the text format that ``maxrep build``
reads; the program sees only the generated matrices.
"""

from __future__ import annotations

import numpy as np


def orthogonal(n, rng):
    q, r = np.linalg.qr(rng.normal(size=(n, n)))
    return q * np.sign(np.diag(r))


def spectral_radius(m):
    return float(np.max(np.abs(np.linalg.eigvals(m))))


def spd(n, rng, lo=0.8, hi=1.25):
    q = orthogonal(n, rng)
    return q @ np.diag(rng.uniform(lo, hi, size=n)) @ q.T


def invertible(n, rng, lo=0.8, hi=1.25):
    """Singular values in [lo, hi]; the determinant sign is random."""
    return orthogonal(n, rng) @ np.diag(rng.uniform(lo, hi, size=n)) @ orthogonal(n, rng)


def contracting(n, rng, rho_lo, rho_hi, spread=1.18):
    """Singular values within a factor `spread`, spectral radius in [rho_lo, rho_hi]."""
    m = invertible(n, rng, 1.0 / spread, spread)
    return m * (rng.uniform(rho_lo, rho_hi) / spectral_radius(m))


def complete_pants(x1, rng, rho_max=0.85):
    """(X2, X3) with X3 (X2^T)^{-1} X1 a random SPD matrix and X3 contracting.

    Scaling X2 and X3 together leaves the product unchanged.
    """
    n = x1.shape[0]
    x2 = contracting(n, rng, 0.3, 0.55)
    x3 = spd(n, rng) @ np.linalg.inv(x1) @ x2.T
    rho = spectral_radius(x3)
    if rho > rho_max:
        mu = rho_max / rho * rng.uniform(0.8, 1.0)
        x2, x3 = mu * x2, mu * x3
    return x2, x3


def pants_params(n, rng):
    """Strictly contracting parameters (X1, X2, X3) with SPD product."""
    x1 = contracting(n, rng, 0.5, 0.8)
    x2, x3 = complete_pants(x1, rng)
    return x1, x2, x3


def symplectic(n, rng, scale=0.4):
    """diag(M, M^{-T}) . [[I, B], [0, I]] . [[I, 0], [W, I]] with B, W symmetric."""
    m = invertible(n, rng, 0.75, 1.3)
    b = scale * spd(n, rng, 0.3, 1.0) * rng.choice([-1.0, 1.0])
    w = scale * spd(n, rng, 0.3, 1.0) * rng.choice([-1.0, 1.0])
    i, z = np.eye(n), np.zeros((n, n))
    d = np.block([[m, z], [z, np.linalg.inv(m).T]])
    t = np.block([[i, b], [z, i]])
    s = np.block([[i, z], [w, i]])
    return d @ t @ s


# ---------------------------------------------------------------------------
# chain-shaped gluing graphs
#
# A graph is {"n", "genus", "m", "nodes": [(name, (X1, X2, X3))],
# "edges": [((up_node, up_port), (lo_node, lo_port), twist)],
# "boundaries": [((node, port), label)]}.  Port k of a node exposes the glue
# length X1, -X2 or X3; an edge with twist G requires
# length_upper = G length_lower^T G^{-1}.


def _glue_length(params, port):
    x1, x2, x3 = params
    return {1: x1, 2: -x2, 3: x3}[port]


def random_chain(genus, m, n, rng):
    """A random chain: a pants or handle block, then pants attached by port 1."""
    nodes, edges, bounds = [], [], []
    if genus == 1:
        x1 = contracting(n, rng, 0.45, 0.75)
        h = invertible(n, rng)
        x3 = h @ x1.T @ np.linalg.inv(h)
        x2 = x3.T @ np.linalg.inv(spd(n, rng)) @ x1.T
        rho = spectral_radius(x2)
        if rho > 0.8:
            x2 = x2 * (0.8 / rho * rng.uniform(0.8, 1.0))
        nodes.append(("p0", (x1, x2, x3)))
        edges.append((("p0", 3), ("p0", 1), h))
        open_port, attach = ("p0", 2), m - 1
    elif genus == 0:
        nodes.append(("p0", pants_params(n, rng)))
        bounds += [(("p0", 1), "C1"), (("p0", 2), "C2")]
        open_port, attach = ("p0", 3), m - 3
    else:
        raise ValueError("chains are generated for genus 0 and 1")
    for k in range(1, attach + 1):
        name = f"p{k}"
        g = invertible(n, rng)
        host = dict(nodes)[open_port[0]]
        x1 = (np.linalg.inv(g) @ _glue_length(host, open_port[1]) @ g).T
        x2, x3 = complete_pants(x1, rng)
        nodes.append((name, (x1, x2, x3)))
        edges.append((open_port, (name, 1), g))
        bounds.append(((name, 2), f"C{len(bounds) + 1}"))
        open_port = (name, 3)
    bounds.append((open_port, f"C{len(bounds) + 1}"))
    return {"n": n, "genus": genus, "m": m, "nodes": nodes, "edges": edges,
            "boundaries": bounds}


def _std(n, sign, value):
    d = np.full(n, value)
    d[0] *= sign
    return np.diag(d)


def standard_chain(m, n, signs):
    """The genus-0 standard representative with boundary signs `signs` (m - 1 of them).

    Lengths are diag(+-1/2, 1/2, ...), twists the identity.
    """
    signs = list(signs)
    half = 0.5 * np.eye(n)
    s1, s2 = signs.pop(0), signs.pop(0)
    x3 = _std(n, s1 * s2, 0.5)
    nodes = [("p0", (_std(n, s1, 0.5), _std(n, s2, 0.5), x3))]
    edges, bounds = [], [(("p0", 1), "C1"), (("p0", 2), "C2")]
    open_port, open_len = ("p0", 3), x3
    for k in range(1, m - 2):
        name = f"p{k}"
        x1 = open_len.T
        x2 = _std(n, signs.pop(0), 0.5)
        x3 = half @ np.linalg.inv(x1) @ x2.T
        nodes.append((name, (x1, x2, x3)))
        edges.append((open_port, (name, 1), np.eye(n)))
        bounds.append(((name, 2), f"C{len(bounds) + 1}"))
        open_port, open_len = (name, 3), x3
    bounds.append((open_port, f"C{len(bounds) + 1}"))
    return {"n": n, "genus": 0, "m": m, "nodes": nodes, "edges": edges,
            "boundaries": bounds}


def _fmt(m):
    return "\n".join("  " + " ".join(repr(float(v)) for v in row) for row in m)


def graph_text(graph):
    """The graph in the `maxrep-graph 1` file format."""
    out = ["maxrep-graph 1", f"n {graph['n']}", f"surface {graph['genus']} {graph['m']}"]
    for name, mats in graph["nodes"]:
        out.append(f"node {name}")
        for label, x in zip(("X1", "X2", "X3"), mats):
            out += [f"  {label}", _fmt(x)]
        out.append("end")
    for up, lo, tw in graph["edges"]:
        out += [f"edge {up[0]} {up[1]} {lo[0]} {lo[1]}", _fmt(tw), "end"]
    for (node, port), label in graph["boundaries"]:
        out.append(f"boundary {node} {port} {label}")
    return "\n".join(out) + "\n"


def boundary_glue_lengths(graph):
    """Declared glue length of each boundary, in boundary order."""
    params = dict(graph["nodes"])
    return [_glue_length(params[node], port) for (node, port), _ in graph["boundaries"]]


def expected_signature(graph):
    """Component signature read off the graph's own matrices.

    Handle blocks give the determinant signs of their first length and of
    their twist; then come the raw slot lengths of every boundary but the last.
    """
    params = dict(graph["nodes"])
    sign = lambda x: int(np.sign(np.linalg.det(x)))
    signs = []
    for up, lo, tw in graph["edges"]:
        if up[0] == lo[0]:
            signs += [sign(params[up[0]][0]), sign(tw)]
    for (node, port), _ in graph["boundaries"][:-1]:
        signs.append(sign(params[node][port - 1]))
    return tuple(signs)
