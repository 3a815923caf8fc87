"""Gluing representations along boundaries: twist elements, gluing graphs,
surface-group representations built from them, and connected-component
signatures.

Surface groups carry the presentation

    < A_1, B_1, ..., A_g, B_g, C_1, ..., C_m |
      [A_g, B_g] ... [A_1, B_1] C_m ... C_1 = e >.

Each boundary slot of a pants representation exposes a lower (fixing 0) and
an upper (fixing infinity) standard form through a fixed rotation of the
standard triple; an internal edge with twist G requires the upper-side
length to equal G (lower-side length)^T G^{-1}.  Amalgamation conjugates one
side by a twist element, split through the symplectic polar decomposition to
keep conditioning balanced; closing a pair of boundaries of one connected
surface adds the handle generator pair (C_1, T) with T conjugating C_1^{-1}
onto the other boundary image.  A one-holed torus is a pants closed that
way along its first and third boundary.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .errors import (
    _non_finite,
    CannotGlue,
    GraphInvalid,
    IllConditioned,
    MaxRepError,
    NotCompatible,
    NotContracting,
    NotValid,
    Slices,
    gate,
)
from .matcore import (
    DEFAULT_TOL,
    Tolerance,
    _singular,
    _stein_solves,
    _unit_circle_masks,
    as_matrix,
    check_finite,
    norm_inf,
    require_invertible,
    similarity_witness,
    sym_part,
)
from .normalform import _standard_blocks
from .pants import PantsParams, _build_maximal_stack
from .symplectic import (
    SpMat,
    _make_symplectics,
    _rotations,
    _sp_inv,
    make_symplectic,
    sp_identity,
    sp_inverse,
)

__all__ = [
    "GlueStatus",
    "GlueCheck",
    "can_glue",
    "standard_lower",
    "standard_upper",
    "twist_element",
    "PantsNode",
    "GraphEdge",
    "GraphBoundary",
    "GluingGraph",
    "SurfaceRep",
    "pants_surface_rep",
    "close_handle",
    "glue_graphs",
    "build_from_graph",
    "component_signature",
    "slot_glue_length",
    "relation_residual",
]


# ---------------------------------------------------------------------------
# twist compatibility along one edge


class GlueStatus(enum.Enum):
    GLUABLE = "gluable"
    NOT_SIMILAR = "not_similar"
    UNIT_MODULUS_OBSTRUCTION = "unit_modulus_obstruction"


@dataclass(frozen=True)
class GlueCheck:
    status: GlueStatus
    witness: np.ndarray | None = None


def can_glue(x, xbar, tol: Tolerance = DEFAULT_TOL) -> GlueCheck:
    """Whether boundaries with length data x and xbar can be glued.

    Any eigenvalue on the unit circle band obstructs gluing outright.
    Otherwise the two sides glue exactly when xbar is similar to x^T; the
    similarity witness is returned.
    """
    x = require_invertible(x, tol, "length matrix")
    xbar = require_invertible(xbar, tol, "length matrix")
    masks = [_unit_circle_masks(m, tol.unit_circle_band) for m in (x, xbar)]
    if any(np.any(outside) for _, _, outside in masks):
        raise NotValid("length matrix has spectrum outside the closed unit disc")
    if any(np.any(on) for _, on, _ in masks):
        return GlueCheck(GlueStatus.UNIT_MODULUS_OBSTRUCTION)
    g = similarity_witness(xbar, x.T, tol)
    if g is None:
        return GlueCheck(GlueStatus.NOT_SIMILAR)
    return GlueCheck(GlueStatus.GLUABLE, witness=g)


def standard_lower(x, s, tol: Tolerance = DEFAULT_TOL) -> SpMat:
    """[[X, 0], [X + X^{-T} S, X^{-T}]], the boundary normal form at 0."""
    return make_symplectic(*_standard_blocks(as_matrix(x), as_matrix(s)), tol)


def standard_upper(xbar, sbar, tol: Tolerance = DEFAULT_TOL) -> SpMat:
    """[[X^{-T}, -X^{-T} - S X], [0, X]], the boundary normal form at infinity."""
    return make_symplectic(*_upper_blocks(as_matrix(xbar), as_matrix(sbar)), tol)


def _upper_blocks(xbar: np.ndarray, sbar: np.ndarray) -> tuple[np.ndarray, ...]:
    """The blocks of standard_upper, for one matrix or a stack."""
    xit = np.linalg.inv(xbar.swapaxes(-1, -2))
    return xit, -xit - sbar @ xbar, np.zeros_like(xbar), xbar


def twist_element(x, s, xbar, sbar, g_twist, tol: Tolerance = DEFAULT_TOL) -> SpMat:
    """The symplectic element conjugating the lower form's inverse to the upper form.

    With c = standard_lower(x, s) and cbar = standard_upper(xbar, sbar) and
    xbar = G x^T G^{-1}, the returned g satisfies g c^{-1} g^{-1} = cbar.  It
    is assembled from the two invertible fixed points

        Y^{-1} = -(sum_i (x^T)^i (x^T x + s) x^i)       (negative definite)
        Ybar   =  sum_i (xbar^T)^i (I + xbar^T sbar xbar) xbar^i

    as the block matrix [[Ybar G Y^{-1} - G^{-T}, -Ybar G], [G Y^{-1}, -G]].
    """
    stacks = (as_matrix(m)[None] for m in (x, s, xbar, sbar, g_twist))
    return SpMat(_twist_elements(*stacks, tol)[0])


def _twist_elements(x, s, xbar, sbar, g, tol: Tolerance, obstruct: bool = False) -> Slices:
    """twist_element on each slice of (k, n, n) stacks, in twist_element's
    check order; the values are the (2n, 2n) twist elements.  _edge_screen's
    eigenvalues serve the resonance check of the Stein solves, which are one
    stacked call.  A product that overflows refuses its slice (IllConditioned).
    """
    n = x.shape[1]
    t, inv = (lambda m: m.swapaxes(-1, -2)), np.linalg.inv
    out = _edge_screen(g, x, xbar, tol, obstruct)
    g, x, xbar, s, sbar, eigs = (m[out.live] for m in (g, x, xbar, sym_part(s), sym_part(sbar), out.values))
    ex, exbar = eigs.swapaxes(0, 1)
    # -(x^T x + s) gives a positive definite solution, so yinv below is
    # negative definite; it is the inverse of the lower form's second fixed point
    q = sym_part(np.concatenate((-(t(x) @ x + s), -(np.eye(n) + t(xbar) @ sbar @ xbar))))
    ps = _stein_solves(np.concatenate((x, xbar)), q, tol, np.concatenate((ex, exbar)))
    g, x, xbar, s, sbar, lower, ybar = out.refuse(ps.first_of(2), g, x, xbar, s, sbar,
                                                  *ps.values.reshape(2, -1, n, n))
    yinv = -lower
    with np.errstate(over="ignore", invalid="ignore"):
        # the twist element, standard_lower(x, s) and standard_upper(xbar, sbar)
        syms = _make_symplectics(*(np.concatenate(b) for b in zip(
            (ybar @ g @ yinv - inv(t(g)), -ybar @ g, g @ yinv, -g),
            _standard_blocks(x, s), _upper_blocks(xbar, sbar))), tol)
        gm, cm, cbarm = out.refuse(syms.first_of(3), *syms.values.reshape(3, -1, 2 * n, 2 * n))
        residual = np.abs(gm @ _sp_inv(cm) @ _sp_inv(gm) - cbarm).max(axis=(-2, -1))
    bound = np.sqrt(tol.eq_tol) * np.maximum(1.0, np.abs(cbarm).max(axis=(-2, -1)))
    # a symplectic inverse has the entries of its matrix, so the floor's factors are gm, cm, gm
    return out.finish(out.refuse(gate("twist conjugation residual", residual, bound, NotCompatible,
                                      "twist conjugation residual {:.3e}", (gm, cm, gm)), gm))


def _edge_screen(g, x, xbar, tol: Tolerance, obstruct: bool = False) -> Slices:
    """The twist kernel's checks ahead of its Stein solves, on (k, n, n)
    stacks of twists g and lower and upper lengths x and xbar, in its order:
    with obstruct, a unit-modulus length (CannotGlue); a non-finite or
    singular g, x or xbar, a g whose square overflows, a non-contracting x or
    xbar; a defect of xbar = G x^T G^{-1} above max(1e-7, 100 eq_tol) *
    max(1, |xbar|) (NotCompatible).  The values are the eigenvalues of x and xbar.
    """
    k, n = x.shape[:2]
    band, big = tol.unit_circle_band, np.sqrt(np.finfo(float).max)   # a larger twist overflows
    out = Slices(k)
    mats = np.stack((g, x, xbar))
    finite = np.isfinite(mats).all(axis=(-2, -1))
    mats = np.where(finite[..., None, None], mats, np.eye(n))
    sv, eigs = np.linalg.svd(mats, compute_uv=False), np.linalg.eigvals(mats[1:])

    def spectral_fault(i):
        if obstruct and (finite[1:, i, None] & (np.abs(np.abs(eigs[:, i]) - 1.0) <= band)).any():
            return CannotGlue("unit-modulus boundary length obstructs gluing")
        for j, what in enumerate(("twist parameter", "lower length", "upper length")):
            fault = _non_finite() if not finite[j, i] else _singular(sv[j, i], tol, what)
            if fault is None and not j and sv[0, i, 0] > big:
                fault = IllConditioned(f"twist parameter overflows (sigma_max = {sv[0, i, 0]:.3e})")
            if fault is None and j and not (np.abs(eigs[j - 1, i]) < 1.0 - band).all():
                fault = NotContracting(f"{('lower', 'upper')[j - 1]} length must be "
                                       "contracting to build the twist element")
            if fault:
                return fault
        return None

    g, x, xbar, eigs = out.refuse([spectral_fault(i) for i in range(k)], g, x, xbar, eigs.swapaxes(0, 1))
    factors = (g, x.swapaxes(-1, -2), np.linalg.inv(g))
    defect = np.abs(factors[0] @ factors[1] @ factors[2] - xbar).max(axis=(-2, -1))
    bound = max(1e-7, 100 * tol.eq_tol) * np.maximum(1.0, np.abs(xbar).max(axis=(-2, -1)))
    return out.finish(out.refuse(gate("twist defect", defect, bound, NotCompatible,
                                      "twist does not conjugate the transposed length (defect {:.3e})",
                                      factors), eigs))


# ---------------------------------------------------------------------------
# slot presentations: every pants slot in lower or upper normal form


def _edge_twists(edges, tol: Tolerance) -> Slices:
    """The twist element, or the gluing step's refusal, of each edge (upper
    pants, upper slot, lower pants, lower slot, twist), in one call.

    Each slot is presented as generator_slot = u @ form(length, S) @ u^{-1},
    with form standard_upper on the upper side and standard_lower on the
    lower one and u = _rotations(n)[k]: rotating the standard
    triple k times, (X1, X2, X3) -> (-X2, -X3, X1) each time, brings the
    slot to position 3 (upper, k = slot mod 3) or 1 (lower, k = slot - 1).
    The pants are built already, so every Xi is finite and invertible.
    """
    if not edges:
        return Slices(0)
    sides = []
    for upper, ends in ((True, [e[:2] for e in edges]), (False, [e[2:4] for e in edges])):
        rotated = []
        for p, slot in ends:
            xs = p.matrices()
            for _ in range(slot % 3 if upper else slot - 1):
                xs = (-xs[1], -xs[2], xs[0])
            rotated.append(xs)
        x1, x2, x3 = np.array(rotated).swapaxes(0, 1)
        prod = x3 @ np.linalg.inv(x2.swapaxes(-1, -2)) @ x1
        sides.append((x3, sym_part(np.linalg.inv(prod))) if upper else (x1, sym_part(prod)))
    (ell_up, sbar_up), (ell_lo, s_lo) = sides
    return _twist_elements(ell_lo, s_lo, ell_up, sbar_up,
                           np.array([as_matrix(e[4]) for e in edges]), tol, obstruct=True)


def slot_glue_length(p: PantsParams, slot: int) -> np.ndarray:
    """The length datum a slot exposes to gluing: X1, -X2 or X3."""
    if slot not in (1, 2, 3):
        raise ValueError(f"slot must be 1, 2 or 3, got {slot}")
    return (p.X1, -p.X2, p.X3)[slot - 1]


# ---------------------------------------------------------------------------
# gluing graphs


@dataclass(frozen=True, eq=False)
class PantsNode:
    name: str
    params: PantsParams


@dataclass(frozen=True, eq=False)
class GraphEdge:
    """Internal edge; the first endpoint is presented in upper form, the
    second in lower form, and the twist must satisfy
    length_upper = G length_lower^T G^{-1}.  A self-edge is always read as
    the handle 3 -> 1: listed from port 1 its twist G stands for inv(G)^T,
    so X3 = inv(G)^T X1^T G^T there."""

    upper: tuple[str, int]   # (node name, port)
    lower: tuple[str, int]
    twist: np.ndarray


@dataclass(frozen=True, eq=False)
class GraphBoundary:
    port: tuple[str, int]
    label: str


@dataclass(frozen=True, eq=False)
class GluingGraph:
    nodes: tuple[PantsNode, ...]
    edges: tuple[GraphEdge, ...]
    boundaries: tuple[GraphBoundary, ...]

    def node_index(self, name: str) -> int:
        for i, nd in enumerate(self.nodes):
            if nd.name == name:
                return i
        raise GraphInvalid(f"unknown node {name!r}")

    @property
    def n(self) -> int:
        return self.nodes[0].params.n

    def surface_type(self) -> tuple[int, int]:
        """(genus, boundary count), from edge counts of the connected graph."""
        self.validate()
        g = len(self.edges) - len(self.nodes) + 1
        return g, len(self.boundaries)

    def validate(self) -> tuple[list[GraphEdge], list[GraphEdge], list[GraphEdge]]:
        """Refuse a malformed graph with GraphInvalid; return its self edges, tree
        edges (joining two pieces not yet joined) and closures, in edge order."""
        if not self.nodes:
            raise GraphInvalid("graph has no pants nodes")
        names = [nd.name for nd in self.nodes]
        if len(set(names)) != len(names):
            raise GraphInvalid("duplicate node names")
        n = self.nodes[0].params.n
        if any(nd.params.n != n for nd in self.nodes):
            raise GraphInvalid("all nodes must share one matrix dimension")
        used: set[tuple[str, int]] = set()

        def use(port):
            name, p = port
            if p not in (1, 2, 3):
                raise GraphInvalid(f"port must be 1, 2 or 3, got {p}")
            self.node_index(name)
            if port in used:
                raise GraphInvalid(f"port {port} used more than once")
            used.add(port)

        for e in self.edges:
            use(e.upper)
            use(e.lower)
            if as_matrix(e.twist).shape != (n, n):
                raise GraphInvalid("twist dimension mismatch")
        labels = [b.label for b in self.boundaries]
        repeated = sorted({x for x in labels if labels.count(x) > 1})
        if repeated:
            raise GraphInvalid(f"boundary labels collide: {repeated}")
        for b in self.boundaries:
            use(b.port)
        if len(used) != 3 * len(self.nodes):
            raise GraphInvalid("every port must be used exactly once")
        # connectivity over internal edges: each node's piece, one set shared by its nodes
        pieces = {nd.name: {nd.name} for nd in self.nodes}
        loops, tree, closures = [], [], []
        for e in self.edges:
            up, lo = e.upper[0], e.lower[0]
            if up == lo:
                loops.append(e)
            elif pieces[up] is pieces[lo]:
                closures.append(e)
            else:
                tree.append(e)
                joined = pieces[up] | pieces[lo]
                pieces.update(dict.fromkeys(joined, joined))
        # a connected graph has at least len(nodes) - 1 edges, so its genus is not negative
        if len(pieces[self.nodes[0].name]) != len(self.nodes):
            raise GraphInvalid("graph is not connected")
        return loops, tree, closures


def glue_graphs(upper: GluingGraph, upper_label: str, lower: GluingGraph, lower_label: str,
                twist) -> GluingGraph:
    """The gluing graph of two surfaces joined by one new edge, from boundary
    upper_label of upper (upper side) to boundary lower_label of lower (lower
    side), with the given twist.

    Node names get the prefixes "1." and "2.".  The nodes are upper's, then
    lower's; the edges upper's, lower's, then the new edge; the boundaries
    upper's, then lower's, without the two glued ones.  Built in edge order,
    the union joins the pieces of upper's build to those of lower's and
    then the two along the new edge.  An unknown label, and whatever
    GluingGraph.validate refuses, raise GraphInvalid.
    """
    sides = []
    for prefix, graph, glued in (("1.", upper, upper_label), ("2.", lower, lower_label)):
        rename = lambda port, prefix=prefix: (prefix + port[0], port[1])
        port = next((b.port for b in graph.boundaries if b.label == glued), None)
        if port is None:
            raise GraphInvalid(f"no boundary labelled {glued!r}")
        sides.append((
            tuple(PantsNode(prefix + nd.name, nd.params) for nd in graph.nodes),
            tuple(GraphEdge(rename(e.upper), rename(e.lower), e.twist) for e in graph.edges),
            tuple(GraphBoundary(rename(b.port), b.label) for b in graph.boundaries if b.label != glued),
            rename(port),
        ))
    (up_nodes, up_edges, up_bounds, up_port), (lo_nodes, lo_edges, lo_bounds, lo_port) = sides
    graph = GluingGraph(up_nodes + lo_nodes, up_edges + lo_edges + (GraphEdge(up_port, lo_port, twist),),
                        up_bounds + lo_bounds)
    graph.validate()
    return graph


# ---------------------------------------------------------------------------
# surface representations


@dataclass(frozen=True, eq=False)
class SurfaceRep:
    """Generator images of a surface group, the labels of its boundaries in
    the order of c_imgs, and the gluing graph they were built from."""

    n: int
    genus: int
    a_imgs: tuple[SpMat, ...]
    b_imgs: tuple[SpMat, ...]
    c_imgs: tuple[SpMat, ...]
    labels: tuple[str, ...]
    graph: GluingGraph
    relation_residual: float
    # each graph node's (membership class, product signature) from the build's
    # own check, in graph order; indexing raises a refused signature
    node_checks: Slices

    @property
    def m(self) -> int:
        return len(self.c_imgs)

    def generator_images(self) -> dict[str, SpMat]:
        out: dict[str, SpMat] = {}
        for i, (a, b) in enumerate(zip(self.a_imgs, self.b_imgs), start=1):
            out[f"A{i}"] = a
            out[f"B{i}"] = b
        for j, c in enumerate(self.c_imgs, start=1):
            out[f"C{j}"] = c
        return out


def _ld_product(*mats: SpMat) -> SpMat:
    """Product computed in extended precision; inputs and output are float64.

    Conjugation chains amplify rounding by the square of the conjugator's
    condition number.  `@` has no BLAS for np.longdouble; np.dot with a
    column-major right factor runs 2.5-3x faster and forms each entry as the
    same sequential sum over k from zero, so the product is bit-identical.
    """
    acc = mats[0].m.astype(np.longdouble)
    for m in mats[1:]:
        acc = np.dot(acc, m.m.astype(np.longdouble, order="F"))
    return SpMat(acc.astype(np.float64))


def relation_residual(n: int, a_imgs, b_imgs, c_imgs) -> float:
    """Defect of [A_g,B_g]...[A_1,B_1] C_m...C_1 against the identity, the
    whole word multiplied in extended precision."""
    word = [g for a, b in zip(reversed(a_imgs), reversed(b_imgs)) for g in (a, b, sp_inverse(a), sp_inverse(b))]
    return norm_inf(_ld_product(*word, *reversed(c_imgs)).m - np.eye(2 * n))


def _surface_fault(n: int, a_imgs, b_imgs, c_imgs, tol: Tolerance) -> tuple[float, MaxRepError | None]:
    """The relation residual of generator images and the first refusal of the
    gate a build and maxrep verify share: a residual above the one absolute
    bound 1e3 * eq_tol (1e-6 at the default), then any image's block
    relations, a breakdown (IllConditioned) since a build makes every image
    symplectic."""
    res = relation_residual(n, a_imgs, b_imgs, c_imgs)
    gens = np.array([g.m for g in (*a_imgs, *b_imgs, *c_imgs)])
    faults = [gate("surface relation residual", res, 1e3 * tol.eq_tol, IllConditioned,
                   "surface relation residual {:.3e}; inputs too ill-conditioned")]
    faults += _make_symplectics(*(gens[:, i:i + n, j:j + n] for i in (0, n) for j in (0, n)), tol).refusals
    fault = next(filter(None, faults), None)
    return res, fault and IllConditioned(str(fault), fault.stage, fault.measured, fault.bound)


def pants_surface_rep(params: PantsParams, tol: Tolerance = DEFAULT_TOL) -> SurfaceRep:
    """A three-holed sphere as a surface representation: the build of the
    one-node graph p whose ports 1, 2, 3 are boundaries "1", "2", "3"."""
    boundaries = tuple(GraphBoundary(("p", s), str(s)) for s in (1, 2, 3))
    return build_from_graph(GluingGraph((PantsNode("p", params),), (), boundaries), tol)


def close_handle(x1, x2, g_twist, tol: Tolerance = DEFAULT_TOL,
                 label: str = "1") -> SurfaceRep:
    """One-holed torus from (X1, X2, G): the build of the one-node graph whose
    pants (X1, X2, G X1^T G^{-1}) closes its third boundary, upper, onto its
    first with twist G.

    The handle pair is (the first generator image, the twist element); the
    remaining boundary is the middle slot, labelled label.  Requires X1
    contracting and the derived product positive definite.
    """
    g_twist = require_invertible(g_twist, tol, "handle twist")
    params = PantsParams(x1, x2, g_twist @ as_matrix(x1).T @ np.linalg.inv(g_twist))
    return build_from_graph(GluingGraph((PantsNode("h", params),),
                                        (GraphEdge(("h", 3), ("h", 1), g_twist),),
                                        (GraphBoundary(("h", 2), label),)), tol)


# -- a surface under construction ---------------------------------------------

class _Gen(NamedTuple):
    """A generator of a surface under construction, with image
    frame @ core @ frame^{-1}.  A boundary's core is its node's pants image and
    its frame the arc from that node's frame; it keeps its pants slot and
    label.  A handle's second generator has its closing's twist conjugator
    as core."""

    frame: SpMat
    core: SpMat
    slot: int = 0
    label: str = ""


@dataclass(frozen=True, eq=False)
class _Piece:
    """The generators of a surface under construction.  Gluing, closing and
    braid moves only left-multiply frames; each image is formed once, by
    _image, when the build ends."""

    a: tuple[_Gen, ...]
    b: tuple[_Gen, ...]
    c: tuple[_Gen, ...]


def _image(g: _Gen) -> SpMat:
    """The generator's image, formed in extended precision."""
    return _ld_product(g.frame, g.core, sp_inverse(g.frame))


def _left(h: SpMat, gens) -> tuple[_Gen, ...]:
    """The generators conjugated by h: each frame left-multiplied by h."""
    return tuple(g._replace(frame=h @ g.frame) for g in gens)


def _swap_adjacent_boundaries(piece: _Piece, i: int) -> _Piece:
    """Exchange boundaries i and i+1 (0-based) by the braid move
    (C_{i+1}', C_i') = (C_i, C_i^{-1} C_{i+1} C_i): C_{i+1}'s arc is
    left-multiplied by C_i^{-1} in one extended-precision product."""
    c = list(piece.c)
    ci, cj = c[i], c[i + 1]
    arc = _ld_product(ci.frame, sp_inverse(ci.core), sp_inverse(ci.frame), cj.frame)
    c[i], c[i + 1] = cj._replace(frame=arc), ci
    return replace(piece, c=tuple(c))


def _move_boundary(piece: _Piece, label: str, target: int) -> _Piece:
    idx = next(i for i, g in enumerate(piece.c) if g.label == label)
    while idx > target:
        piece = _swap_adjacent_boundaries(piece, idx - 1)
        idx -= 1
    while idx < target:
        piece = _swap_adjacent_boundaries(piece, idx)
        idx += 1
    return piece


# -- balancing the gauge ------------------------------------------------------

def _polar_split(h: SpMat) -> tuple[SpMat, SpMat]:
    """(h1, h2) symplectic with h1^{-1} h2 = h and both of condition ~ sqrt(cond h).

    Writes h = U P through the symplectic polar decomposition; h2 = U P^{1/2}
    and h1 = U P^{-1/2} U^T.  Conjugating the two glued sides by h1 and h2
    instead of (identity, h) halves the condition exponent of the products.
    """
    # overflows are screened, not warned about
    with np.errstate(over="ignore", invalid="ignore"):
        w, v = np.linalg.eigh(check_finite(sym_part(h.m.T @ h.m)))
        w = np.maximum(w, np.finfo(float).tiny)
        p_mquarter = v @ np.diag(w ** -0.25) @ v.T
        p_mhalf = v @ np.diag(w ** -0.5) @ v.T
        u = h.m @ p_mhalf
        h1 = SpMat(check_finite(_symplectify(u @ p_mquarter @ u.T)))
        # define the second factor through the first so that h1^{-1} h2
        # reproduces h exactly; the eigendecomposition only sets the balance
        return h1, SpMat(check_finite(_ld_product(h1, h).m))


def _symplectify(a: np.ndarray) -> np.ndarray:
    """Newton steps a <- a + a J (a^T J a - J) / 2 toward the symplectic group, at
    most four; the last starts from a defect at rounding level.  J = [[0, I], [-I, 0]]
    acts as signed block swaps: the defect is K - K^T with K = T^T B - [[0, I], [0, 0]]
    for the row blocks T, B of a, so each step is two products."""
    n = a.shape[0] // 2
    eye = np.eye(n)
    bound = 2 * n * np.finfo(float).eps * max(1.0, np.abs(a).max()) ** 2
    for _ in range(4):
        k = a[:n].T @ a[n:]
        k[:n, n:] -= eye
        err = k - k.T
        a = a + 0.5 * (a @ np.concatenate((err[n:], -err[:n])))
        if np.abs(err).max() <= bound:
            break
    return a


def _edge_twist(up: _Gen, lo: _Gen, tw: SpMat, rots: tuple[SpMat, ...]) -> SpMat:
    """The global conjugator h with h . img_lo . h^{-1} = img_up^{-1} for the
    boundaries up and lo, from their arcs and slot rotations (rots, the
    SpMats of _rotations(n)[:3]) and the edge's twist element tw as
    _edge_twists formed it.

    The product is formed in extended precision, which keeps its conjugation
    defect at rounding level; an overflow in it raises IllConditioned.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        h = _ld_product(up.frame @ rots[up.slot % 3], tw, sp_inverse(lo.frame @ rots[lo.slot - 1]))
    check_finite(h.m)
    return h


def _amalgamate(piece1: _Piece, label1: str, piece2: _Piece, label2: str,
                tw: SpMat, rots: tuple[SpMat, ...]) -> _Piece:
    """Glue boundary label1 of piece1, in upper position, to boundary label2
    of piece2, in lower position, through the edge's twist element tw.  The
    result carries piece1's remaining boundaries first, then piece2's, and
    piece2's handle generators before piece1's."""
    piece1 = _move_boundary(piece1, label1, len(piece1.c) - 1)
    piece2 = _move_boundary(piece2, label2, 0)
    h1, h2 = _polar_split(_edge_twist(piece1.c[-1], piece2.c[0], tw, rots))
    return _Piece(_left(h2, piece2.a) + _left(h1, piece1.a), _left(h2, piece2.b) + _left(h1, piece1.b),
                  _left(h1, piece1.c[:-1]) + _left(h2, piece2.c[1:]))


def _close_boundaries(piece: _Piece, upper_label: str, lower_label: str,
                      tw: SpMat, rots: tuple[SpMat, ...]) -> _Piece:
    """Close two boundaries of one connected surface into a handle, through
    the edge's twist element tw.

    The lower boundary moves to the first position and the upper to the
    last, which are cyclically adjacent in the defining relation, so the
    remaining boundaries stay untouched.  The new handle pair is (C_1, T),
    taking the lowest handle index, with T conjugating C_1^{-1} to C_m;
    older handle generators are conjugated by C_1, exactly as the relation
    reshapes to the standard presentation.
    """
    if len(piece.c) == 2:
        # only the closing pair remains: with the upper boundary first the
        # relation is already H [C_2, T], so nothing needs dressing.  The
        # general branch below is valid algebra here too, but dressing every
        # older handle generator by C_1 costs conditioning: on two pants
        # joined by three parallel edges at n = 2, seeds 0-7, it raises the
        # relation residual from at most 2.1e-8 to between 1.2e-2 and 3.7e8
        piece = _move_boundary(piece, upper_label, 0)
        piece = _move_boundary(piece, lower_label, 1)
        t = _edge_twist(piece.c[0], piece.c[1], tw, rots)
        a, b = (piece.c[1],) + piece.a, piece.b
    else:
        # lower first, upper last (cyclically adjacent); the relation
        # conjugated by C_1 reshapes to (C_1 H C_1^{-1}) [C_1, T] W, leaving
        # the remaining boundaries untouched
        piece = _move_boundary(piece, lower_label, 0)
        piece = _move_boundary(piece, upper_label, len(piece.c) - 1)
        t = _edge_twist(piece.c[-1], piece.c[0], tw, rots)
        c1 = _image(piece.c[0])
        a, b = (piece.c[0],) + _left(c1, piece.a), _left(c1, piece.b)
    return _Piece(a, (_Gen(sp_identity(t.n), t),) + b, piece.c[1:-1])


# ---------------------------------------------------------------------------
# building from a graph


def _gluing_plan(graph: GluingGraph) -> tuple[dict[str, GraphEdge], list[GraphEdge],
                                               list[GraphEdge], list[tuple]]:
    """The builder's choice of edges: (self edges, tree edges, closure edges, reads).

    Self edges are keyed by node name in node order; each must join ports 1
    and 3 of its node (the handle-block shape).  Every other edge is read in
    edge order: a tree edge when it joins two pieces not yet joined, a
    closure otherwise.  Both lists keep edge order.  reads holds every edge,
    in that order, as the twist kernel reads it: (upper pants, upper port,
    lower pants, lower port, twist), a self edge from port 3 to port 1 with
    its twist turned by _loop_twist.  The glued lengths are slot_glue_length's.
    """
    loops, tree_edges, closures = graph.validate()
    if any({e.upper[1], e.lower[1]} != {1, 3} for e in loops):
        raise GraphInvalid("a self-edge must join ports 1 and 3")
    # in node order; validate leaves a node at most one self-edge: it has three ports
    ordered = {nd.name: e for nd in graph.nodes for e in loops if e.upper[0] == nd.name}
    params = {nd.name: nd.params for nd in graph.nodes}
    reads = [(params[name], 3, params[name], 1, _loop_twist(e.twist, e.upper[1]))
             for name, e in ordered.items()]
    reads += [(params[e.upper[0]], e.upper[1], params[e.lower[0]], e.lower[1], e.twist)
              for e in (*tree_edges, *closures)]
    return ordered, tree_edges, closures, reads


def _loop_twist(twist, upper_port: int) -> np.ndarray:
    """A self edge's twist in the handle orientation X3 = G X1^T G^{-1}.

    That is the twist itself when the upper side is port 3 and inv(G)^T when
    it is port 1.  The map is its own inverse, so it also turns a handle
    twist back into the edge's twist.  A stack of twists maps twist by twist.
    """
    g = np.atleast_2d(np.asarray(twist, dtype=float))
    if upper_port != 1:
        return g
    try:
        return np.linalg.inv(g).swapaxes(-1, -2)
    except np.linalg.LinAlgError:
        # an exactly singular twist stays singular, for the twist kernel to refuse
        return np.linalg.pinv(g).swapaxes(-1, -2)


def _assemble(graph: GluingGraph, tol: Tolerance) -> tuple[_Piece, Slices]:
    """The piece a graph's build assembles, its boundaries in declared order
    under their declared labels, and its node checks.

    Each node starts as its own piece, closed first along its self-edge
    (which must join ports 1 and 3).  The other edges are glued in listed
    order, node order aside: one joining two pieces merges them, the rest
    close handles at the end, in edge order.  The boundaries are then
    braid-moved into their declared order.

    Every node's pants images come from one stacked forward-map call and
    every edge's twist element, a self-edge's in the handle orientation of
    _loop_twist, from one stacked twist call; the gluing then runs edge by
    edge.  A refused assembly raises the first refused node in node order,
    else the first refused edge in _gluing_plan order.
    """
    self_edges, tree_edges, closures, reads = _gluing_plan(graph)
    label = lambda port: f"{port[0]}.{port[1]}"
    classes, checks, reps = _build_maximal_stack(np.array([nd.params.matrices() for nd in graph.nodes]), tol)
    # indexing a Slices raises its refusal: the first refused node, then edge
    pants = {nd.name: reps[i] for i, nd in enumerate(graph.nodes)}
    twists = _edge_twists(reads, tol)
    tws = {e: SpMat(twists[j]) for j, e in enumerate((*self_edges.values(), *tree_edges, *closures))}
    ident, rots = sp_identity(graph.n), tuple(SpMat(u) for u in _rotations(graph.n)[:3])

    def fresh_block(name: str) -> _Piece:
        block = _Piece((), (), tuple(_Gen(ident, c, s, label((name, s)))
                                     for s, c in zip((1, 2, 3), pants[name].generators())))
        return _close_boundaries(block, label((name, 3)), label((name, 1)), tws[self_edges[name]], rots) \
            if name in self_edges else block

    # each node's piece: the surface assembled so far of the nodes joined to it
    pieces = {nd.name: fresh_block(nd.name) for nd in graph.nodes}
    for e in tree_edges:
        up, lo = pieces[e.upper[0]], pieces[e.lower[0]]
        built = _amalgamate(up, label(e.upper), lo, label(e.lower), tws[e], rots)
        pieces = {name: built if piece in (up, lo) else piece for name, piece in pieces.items()}
    # the graph is connected, so one piece is left
    built = pieces[graph.nodes[0].name]
    for e in closures:
        built = _close_boundaries(built, label(e.upper), label(e.lower), tws[e], rots)
    for target, b in enumerate(graph.boundaries):
        built = _move_boundary(built, label(b.port), target)
    relabel = {label(b.port): b.label for b in graph.boundaries}
    # a built graph refused no node, so slice j of the check is graph node j
    checks.values = list(zip(classes.values, checks.values))
    return replace(built, c=tuple(g._replace(label=relabel[g.label]) for g in built.c)), checks


def _surface_rep(piece: _Piece, checks: Slices, graph: GluingGraph, tol: Tolerance) -> SurfaceRep:
    """The representation of an assembled piece: each generator image formed
    once, and the images meeting the gate of _surface_fault."""
    a_imgs, b_imgs, c_imgs = (tuple(map(_image, gens)) for gens in (piece.a, piece.b, piece.c))
    res, fault = _surface_fault(graph.n, a_imgs, b_imgs, c_imgs, tol)
    if fault:
        raise fault
    return SurfaceRep(graph.n, len(a_imgs), a_imgs, b_imgs, c_imgs, tuple(g.label for g in piece.c),
                      graph, res, checks)


def build_from_graph(graph: GluingGraph, tol: Tolerance = DEFAULT_TOL) -> SurfaceRep:
    """Assemble the surface representation described by a gluing graph, as
    _assemble describes; the finished images meet the gate of _surface_fault
    once, after every refusal of the assembly."""
    return _surface_rep(*_assemble(graph, tol), graph, tol)


# ---------------------------------------------------------------------------
# component signatures


def _det_sign(m, what: str) -> int:
    """Sign of det(m); a determinant that is exactly zero is refused."""
    d = float(np.linalg.det(as_matrix(m)))
    if d == 0.0:
        raise NotValid(f"{what} determinant sign could not be resolved")
    return int(np.sign(d))


def component_signature(rep_or_graph, tol: Tolerance = DEFAULT_TOL) -> tuple[int, ...]:
    """Determinant-sign vector separating connected components, read off the
    gluing graph (a representation's, or the one given) without building it.

    Per handle the signs of the handle length and handle twist, self-edge
    handles in node order, then closure edges in edge order (those the
    build closes: each edge whose ends an earlier listed edge has already
    joined, so a listing's edge order picks its handles); then the signs
    of the raw slot lengths of the first m - 1 boundaries.  The vector has
    length 2 * genus + m - 1 and is constant on connected components of the
    representation space.  A closed surface has no signature (GraphInvalid).
    """
    graph = rep_or_graph.graph if isinstance(rep_or_graph, SurfaceRep) else rep_or_graph
    return _signature(graph, _gluing_plan(graph))


def _signature(graph: GluingGraph, plan) -> tuple[int, ...]:
    """component_signature of a graph, read off its _gluing_plan."""
    self_edges, _, closures, _ = plan
    params = {nd.name: nd.params for nd in graph.nodes}
    length = lambda port: params[port[0]].matrices()[port[1] - 1]
    handles = [(params[name].X1, e.twist) for name, e in self_edges.items()]
    handles += [(length(e.lower), e.twist) for e in closures]
    signs = [s for x, g in handles for s in (_det_sign(x, "handle length"), _det_sign(g, "handle twist"))]
    if not graph.boundaries:
        raise GraphInvalid("component signatures are defined for surfaces with boundary")
    signs += [_det_sign(length(b.port), "boundary") for b in graph.boundaries[:-1]]
    return tuple(signs)
