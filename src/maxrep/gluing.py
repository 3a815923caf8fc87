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

import numpy as np

from .errors import (
    CannotGlue,
    GraphInvalid,
    IllConditioned,
    NotCompatible,
    NotContracting,
    NotValid,
)
from .matcore import (
    DEFAULT_TOL,
    CircleClass,
    Tolerance,
    _unit_circle_masks,
    as_matrix,
    check_finite,
    circle_class,
    norm_inf,
    rel_bound,
    require_invertible,
    similarity_witness,
    stein_solve,
    sym_part,
)
from .normalform import standard_element as standard_lower
from .pants import (
    PantsParams,
    ParamClass,
    build_maximal,
    classify_params,
    pants_product,
)
from .symplectic import (
    SpMat,
    cycle_symplectic,
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
    "PortRef",
    "SurfaceRep",
    "pants_surface_rep",
    "close_handle",
    "glue_reps",
    "close_pair",
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


def standard_upper(xbar, sbar, tol: Tolerance = DEFAULT_TOL) -> SpMat:
    """[[X^{-T}, -X^{-T} - S X], [0, X]], the boundary normal form at infinity."""
    xbar, sbar = as_matrix(xbar), as_matrix(sbar)
    n = xbar.shape[0]
    xit = np.linalg.inv(xbar.T)
    return make_symplectic(xit, -xit - sbar @ xbar, np.zeros((n, n)), xbar, tol)


def twist_element(x, s, xbar, sbar, g_twist, tol: Tolerance = DEFAULT_TOL) -> SpMat:
    """The symplectic element conjugating the lower form's inverse to the upper form.

    With c = standard_lower(x, s) and cbar = standard_upper(xbar, sbar) and
    xbar = G x^T G^{-1}, the returned g satisfies g c^{-1} g^{-1} = cbar.  It
    is assembled from the two invertible fixed points

        Y^{-1} = -(sum_i (x^T)^i (x^T x + s) x^i)       (negative definite)
        Ybar   =  sum_i (xbar^T)^i (I + xbar^T sbar xbar) xbar^i

    as the block matrix [[Ybar G Y^{-1} - G^{-T}, -Ybar G], [G Y^{-1}, -G]].
    """
    x, xbar = as_matrix(x), as_matrix(xbar)
    g_twist = require_invertible(g_twist, tol, "twist parameter")
    n = x.shape[0]
    for name, m in (("lower length", x), ("upper length", xbar)):
        if circle_class(m, tol) is not CircleClass.CONTRACTING:
            raise NotContracting(f"{name} must be contracting to build the twist element")
    compat = _twist_defect(g_twist, x, xbar, tol)
    if compat is not None:
        raise NotCompatible(
            f"twist does not conjugate the transposed length (defect {compat:.3e})")
    s = sym_part(as_matrix(s))
    sbar = sym_part(as_matrix(sbar))
    # stein_solve(x, -(x^T x + s)) is positive definite, so yinv below is
    # negative definite; it is the inverse of the lower form's second fixed point
    yinv = -stein_solve(x, -(x.T @ x + s), tol)
    ybar = stein_solve(xbar, -(np.eye(n) + xbar.T @ sbar @ xbar), tol)
    g = make_symplectic(
        ybar @ g_twist @ yinv - np.linalg.inv(g_twist.T),
        -ybar @ g_twist,
        g_twist @ yinv,
        -g_twist,
        tol,
    )
    c = standard_lower(x, s, tol)
    cbar = standard_upper(xbar, sbar, tol)
    conj = (g @ sp_inverse(c) @ sp_inverse(g)).m
    residual = norm_inf(conj - cbar.m)
    if residual > rel_bound(np.sqrt(tol.eq_tol), cbar.m):
        raise NotCompatible(f"twist conjugation residual {residual:.3e}")
    return g


def _twist_defect(g_twist, x, xbar, tol: Tolerance) -> float | None:
    """The defect of xbar = G x^T G^{-1}, or None when it is within the band
    max(1e-7, 100 eq_tol) * max(1, |xbar|)."""
    defect = norm_inf(g_twist @ x.T @ np.linalg.inv(g_twist) - xbar)
    return defect if defect > rel_bound(max(1e-7, 100 * tol.eq_tol), xbar) else None


# ---------------------------------------------------------------------------
# slot presentations: every pants slot in lower or upper normal form


def _slot_presentation(p: PantsParams, slot: int, tol: Tolerance,
                       upper: bool) -> tuple[SpMat, np.ndarray, np.ndarray]:
    """(u, length, S) with generator_slot = u @ form(length, S) @ u^{-1}, where
    form is standard_upper when upper and standard_lower otherwise.

    Rotating the standard triple k times, (X1, X2, X3) -> (-X2, -X3, X1)
    each time, brings the slot to position 1 (lower, k = slot - 1) or to
    position 3 (upper, k = slot mod 3).  With r = cycle_symplectic(n), whose
    cube is -I, u is the identity, r^{-1} or r for k = 0, 1, 2.
    """
    if slot not in (1, 2, 3):
        raise ValueError(f"slot must be 1, 2 or 3, got {slot}")
    k = slot % 3 if upper else slot - 1
    for _ in range(k):
        p = PantsParams(-p.X2, -p.X3, p.X1)
    r = cycle_symplectic(p.n)
    u = sp_identity(p.n) if k == 0 else sp_inverse(r) if k == 1 else r
    prod = pants_product(p, tol)
    if upper:
        return u, p.X3, sym_part(np.linalg.inv(prod))
    return u, p.X1, sym_part(prod)


def slot_glue_length(p: PantsParams, slot: int) -> np.ndarray:
    """The length datum a slot exposes to gluing: X1, -X2 or X3."""
    if slot == 1:
        return p.X1
    if slot == 2:
        return -p.X2
    if slot == 3:
        return p.X3
    raise ValueError(f"slot must be 1, 2 or 3, got {slot}")


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
    length_upper = G length_lower^T G^{-1}."""

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

    def validate(self):
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
        if len(set(labels)) != len(labels):
            raise GraphInvalid("duplicate boundary labels")
        for b in self.boundaries:
            use(b.port)
        if len(used) != 3 * len(self.nodes):
            raise GraphInvalid("every port must be used exactly once")
        # connectivity over internal edges
        adj: dict[str, set[str]] = {nd.name: set() for nd in self.nodes}
        for e in self.edges:
            adj[e.upper[0]].add(e.lower[0])
            adj[e.lower[0]].add(e.upper[0])
        seen = {self.nodes[0].name}
        stack = [self.nodes[0].name]
        while stack:
            for nb in adj[stack.pop()]:
                if nb not in seen:
                    seen.add(nb)
                    stack.append(nb)
        if len(seen) != len(self.nodes):
            raise GraphInvalid("graph is not connected")
        g = len(self.edges) - len(self.nodes) + 1
        if g < 0:
            raise GraphInvalid("edge count below tree size; graph disconnected?")
        if 3 * len(self.nodes) != 2 * len(self.edges) + len(self.boundaries):
            raise GraphInvalid("port bookkeeping is inconsistent")


# ---------------------------------------------------------------------------
# surface representations


@dataclass(frozen=True, eq=False)
class PortRef:
    node: int
    slot: int
    conjugator: SpMat
    label: str


@dataclass(frozen=True, eq=False)
class SurfaceRep:
    """Generator images of a surface group, with provenance of each boundary."""

    n: int
    genus: int
    a_imgs: tuple[SpMat, ...]
    b_imgs: tuple[SpMat, ...]
    c_imgs: tuple[SpMat, ...]
    ports: tuple[PortRef, ...]
    nodes: tuple[PantsParams, ...]
    handle_signs: tuple[tuple[int, int], ...] = ()
    relation_residual: float = 0.0
    graph: GluingGraph | None = None

    @property
    def m(self) -> int:
        return len(self.c_imgs)

    def boundary_labels(self) -> tuple[str, ...]:
        return tuple(p.label for p in self.ports)

    def boundary_index(self, label: str) -> int:
        for i, p in enumerate(self.ports):
            if p.label == label:
                return i
        raise KeyError(f"no boundary labelled {label!r}")

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
    condition number, and the extra mantissa bits are cheap at these sizes.
    """
    acc = mats[0].m.astype(np.longdouble)
    for m in mats[1:]:
        acc = acc @ m.m.astype(np.longdouble)
    return SpMat(acc.astype(np.float64))


def _commutator(a: SpMat, b: SpMat) -> SpMat:
    return _ld_product(a, b, sp_inverse(a), sp_inverse(b))


def relation_residual(n: int, a_imgs, b_imgs, c_imgs) -> float:
    """Defect of [A_g,B_g]...[A_1,B_1] C_m...C_1 against the identity."""
    total = sp_identity(n)
    for a, b in zip(reversed(a_imgs), reversed(b_imgs)):
        total = total @ _commutator(a, b)
    for c in reversed(c_imgs):
        total = total @ c
    return norm_inf(total.m - np.eye(2 * n))


def _checked_surface(rep: SurfaceRep, tol: Tolerance) -> SurfaceRep:
    res = relation_residual(rep.n, rep.a_imgs, rep.b_imgs, rep.c_imgs)
    scale = max((norm_inf(g.m) for g in rep.a_imgs + rep.b_imgs + rep.c_imgs),
                default=1.0)
    # a NaN residual compares False against any bound
    if not np.isfinite(res) or res > max(1e-7, tol.eq_tol * max(1.0, scale) ** 2):
        raise IllConditioned(
            f"surface relation residual {res:.3e}; inputs too ill-conditioned")
    return replace(rep, relation_residual=res)


def pants_surface_rep(params: PantsParams, tol: Tolerance = DEFAULT_TOL,
                      labels: tuple[str, str, str] = ("1", "2", "3")) -> SurfaceRep:
    """A three-holed sphere as a surface representation (no gluing)."""
    rep = build_maximal(params, tol)
    ident = sp_identity(params.n)
    ports = tuple(PortRef(0, slot, ident, labels[slot - 1]) for slot in (1, 2, 3))
    return SurfaceRep(
        n=params.n, genus=0,
        a_imgs=(), b_imgs=(),
        c_imgs=(rep.c1, rep.c2, rep.c3),
        ports=ports,
        nodes=(params,),
        relation_residual=rep.relation_residual,
    )


def close_handle(x1, x2, g_twist, tol: Tolerance = DEFAULT_TOL,
                 label: str = "1") -> SurfaceRep:
    """One-holed torus from (X1, X2, G): close the first and third boundary
    of the pants (X1, X2, G X1^T G^{-1}) with twist G, the third upper.

    The handle pair is (the first generator image, the twist element); the
    remaining boundary is the middle slot, labelled label.  Requires X1
    contracting and the derived product positive definite.
    """
    x1, x2 = as_matrix(x1), as_matrix(x2)
    g_twist = require_invertible(g_twist, tol, "handle twist")
    if circle_class(x1, tol) is not CircleClass.CONTRACTING:
        raise NotContracting("X1 must be contracting to close a handle")
    params = PantsParams(x1, x2, g_twist @ x1.T @ np.linalg.inv(g_twist))
    if classify_params(params, tol) in (ParamClass.NOT_VALID, ParamClass.IN_TILDE_R):
        raise NotValid("handle parameters do not define a maximal representation "
                       "with spectra in the closed unit disc")
    pants = pants_surface_rep(params, tol, labels=(f"{label}.1", label, f"{label}.3"))
    return close_pair(pants, f"{label}.3", f"{label}.1", g_twist, tol)


# -- boundary reindexing ------------------------------------------------------

def _conjugate_rep(rep: SurfaceRep, h: SpMat) -> SurfaceRep:
    hinv = sp_inverse(h)
    conj = lambda g: _ld_product(h, g, hinv)
    return replace(
        rep,
        a_imgs=tuple(conj(a) for a in rep.a_imgs),
        b_imgs=tuple(conj(b) for b in rep.b_imgs),
        c_imgs=tuple(conj(c) for c in rep.c_imgs),
        ports=tuple(replace(p, conjugator=h @ p.conjugator) for p in rep.ports),
    )


def _swap_adjacent_boundaries(rep: SurfaceRep, i: int) -> SurfaceRep:
    """Exchange boundaries i and i+1 (0-based) by the braid move
    (C_{i+1}', C_i') = (C_i, C_i^{-1} C_{i+1} C_i)."""
    ci = rep.c_imgs[i]
    ci_inv = sp_inverse(ci)
    new_c = list(rep.c_imgs)
    new_p = list(rep.ports)
    new_c[i + 1], new_c[i] = ci, _ld_product(ci_inv, rep.c_imgs[i + 1], ci)
    new_p[i + 1], new_p[i] = new_p[i], replace(
        new_p[i + 1], conjugator=ci_inv @ new_p[i + 1].conjugator)
    return replace(rep, c_imgs=tuple(new_c), ports=tuple(new_p))


def _move_boundary(rep: SurfaceRep, label: str, target: int) -> SurfaceRep:
    idx = rep.boundary_index(label)
    while idx > target:
        rep = _swap_adjacent_boundaries(rep, idx - 1)
        idx -= 1
    while idx < target:
        rep = _swap_adjacent_boundaries(rep, idx)
        idx += 1
    return rep


# -- balancing the gauge ------------------------------------------------------

def _polar_split(h: SpMat) -> tuple[SpMat, SpMat]:
    """(h1, h2) symplectic with h1^{-1} h2 = h and both of condition ~ sqrt(cond h).

    Writes h = U P through the symplectic polar decomposition; h2 = U P^{1/2}
    and h1 = U P^{-1/2} U^T.  Conjugating the two glued sides by h1 and h2
    instead of (identity, h) halves the condition exponent of the products.
    """
    hth = sym_part(h.m.T @ h.m)
    w, v = np.linalg.eigh(hth)
    w = np.maximum(w, np.finfo(float).tiny)
    p_mquarter = v @ np.diag(w ** -0.25) @ v.T
    p_mhalf = v @ np.diag(w ** -0.5) @ v.T
    u = h.m @ p_mhalf
    h1 = SpMat(_symplectify(u @ p_mquarter @ u.T))
    # define the second factor through the first so that h1^{-1} h2
    # reproduces h exactly; the eigendecomposition only sets the balance
    return h1, _ld_product(h1, h)


def _port_presentations(rep: SurfaceRep, idx: int, tol: Tolerance, upper: bool):
    port = rep.ports[idx]
    u, ell, s = _slot_presentation(rep.nodes[port.node], port.slot, tol, upper)
    return port.conjugator @ u, ell, s


_SYMPLECTIC_J_CACHE: dict[int, np.ndarray] = {}


def _j_form(n: int) -> np.ndarray:
    if n not in _SYMPLECTIC_J_CACHE:
        z, i = np.zeros((n, n)), np.eye(n)
        _SYMPLECTIC_J_CACHE[n] = np.block([[z, i], [-i, z]])
    return _SYMPLECTIC_J_CACHE[n]


def _symplectify(a: np.ndarray) -> np.ndarray:
    """Newton steps toward the symplectic group, in extended precision.

    Uses J^{-1} = -J, so each step is pure matrix multiplication:
    a <- a + a J (a^T J a - J) / 2.
    """
    j = _j_form(a.shape[0] // 2).astype(np.longdouble)
    x = a.astype(np.longdouble)
    for _ in range(3):
        err = x.T @ j @ x - j
        x = x + 0.5 * x @ j @ err
    return x.astype(np.float64)


def _edge_twist(rep_up: SurfaceRep, idx_up: int,
                rep_lo: SurfaceRep, idx_lo: int,
                g_twist, tol: Tolerance) -> SpMat:
    """The global conjugator h with h . img_lo . h^{-1} = img_up^{-1}.

    The product is formed in extended precision, which keeps its conjugation
    defect at rounding level; an overflow in it raises IllConditioned.
    """
    qu, ell_up, sbar_up = _port_presentations(rep_up, idx_up, tol, upper=True)
    ql, ell_lo, s_lo = _port_presentations(rep_lo, idx_lo, tol, upper=False)
    for ell in (ell_up, ell_lo):
        if np.any(_unit_circle_masks(ell, tol.unit_circle_band)[1]):
            raise CannotGlue("unit-modulus boundary length obstructs gluing")
    tw = twist_element(ell_lo, s_lo, ell_up, sbar_up, g_twist, tol)
    h = _ld_product(qu, tw, sp_inverse(ql))
    check_finite(h.m)
    return h


def glue_reps(rep1: SurfaceRep, label1: str, rep2: SurfaceRep, label2: str,
              g_twist, tol: Tolerance = DEFAULT_TOL) -> SurfaceRep:
    """Glue boundary label1 of rep1 to boundary label2 of rep2 with a twist.

    rep1's boundary is consumed in upper position, rep2's in lower position;
    the twist must satisfy length_up = G length_lo^T G^{-1}.  The result
    carries rep1's remaining boundaries first, then rep2's, and rep2's handle
    generators before rep1's.
    """
    if rep1.n != rep2.n:
        raise CannotGlue("matrix dimensions differ")
    overlap = (set(rep1.boundary_labels()) - {label1}) & \
              (set(rep2.boundary_labels()) - {label2})
    if overlap:
        raise ValueError(f"boundary labels collide: {sorted(overlap)}")
    rep1 = _move_boundary(rep1, label1, rep1.m - 1)
    rep2 = _move_boundary(rep2, label2, 0)
    h = _edge_twist(rep1, rep1.m - 1, rep2, 0, g_twist, tol)
    h1, h2 = _polar_split(h)
    rep1 = _conjugate_rep(rep1, h1)
    rep2 = _conjugate_rep(rep2, h2)
    offset = len(rep1.nodes)
    shift = lambda p: replace(p, node=p.node + offset)
    out = SurfaceRep(
        n=rep1.n,
        genus=rep1.genus + rep2.genus,
        a_imgs=rep2.a_imgs + rep1.a_imgs,
        b_imgs=rep2.b_imgs + rep1.b_imgs,
        c_imgs=rep1.c_imgs[:-1] + rep2.c_imgs[1:],
        ports=rep1.ports[:-1] + tuple(shift(p) for p in rep2.ports[1:]),
        nodes=rep1.nodes + rep2.nodes,
        handle_signs=rep1.handle_signs + rep2.handle_signs,
    )
    return _checked_surface(out, tol)


def close_pair(rep: SurfaceRep, upper_label: str, lower_label: str,
               g_twist, tol: Tolerance = DEFAULT_TOL) -> SurfaceRep:
    """Close two boundaries of one connected surface into a handle.

    The lower boundary moves to the first position and the upper to the
    last, which are cyclically adjacent in the defining relation, so the
    remaining boundary images stay untouched.  The new handle pair is
    (C_1, T), taking the lowest handle index, with T conjugating C_1^{-1}
    to C_m; older handle generators are conjugated by C_1, exactly as the
    relation reshapes to the standard presentation.
    """
    if upper_label == lower_label:
        raise CannotGlue("cannot close a boundary against itself")
    if rep.m == 2:
        # only the closing pair remains: with the upper boundary first the
        # relation is already H [C_2, T], so nothing needs dressing.  The
        # general branch below is valid algebra here too, but dressing every
        # older handle generator by C_1 costs conditioning: on two pants
        # joined by three parallel edges at n = 2 it raises the relation
        # residual from at most 2e-8 to between 5e-3 and 4e8
        rep = _move_boundary(rep, upper_label, 0)
        rep = _move_boundary(rep, lower_label, 1)
        t = _edge_twist(rep, 0, rep, 1, g_twist, tol)
        low_idx, new_a = 1, rep.c_imgs[1]
        a_imgs = (new_a,) + rep.a_imgs
        b_imgs = (t,) + rep.b_imgs
    else:
        # lower first, upper last (cyclically adjacent); the relation
        # conjugated by C_1 reshapes to (C_1 H C_1^{-1}) [C_1, T] W, leaving
        # the remaining boundaries untouched
        rep = _move_boundary(rep, lower_label, 0)
        rep = _move_boundary(rep, upper_label, rep.m - 1)
        t = _edge_twist(rep, rep.m - 1, rep, 0, g_twist, tol)
        low_idx, new_a = 0, rep.c_imgs[0]
        c1_inv = sp_inverse(new_a)
        dress = lambda g: _ld_product(new_a, g, c1_inv)
        a_imgs = (new_a,) + tuple(dress(a) for a in rep.a_imgs)
        b_imgs = (t,) + tuple(dress(b) for b in rep.b_imgs)
    low_port = rep.ports[low_idx]
    low_len = rep.nodes[low_port.node].matrices()[low_port.slot - 1]
    out = SurfaceRep(
        n=rep.n,
        genus=rep.genus + 1,
        a_imgs=a_imgs,
        b_imgs=b_imgs,
        c_imgs=rep.c_imgs[1:-1],
        ports=rep.ports[1:-1],
        nodes=rep.nodes,
        handle_signs=rep.handle_signs + (_handle_signs(low_len, g_twist),),
    )
    return _checked_surface(out, tol)


# ---------------------------------------------------------------------------
# building from a graph


def _gluing_plan(graph: GluingGraph) -> tuple[dict[str, GraphEdge], list[GraphEdge],
                                               list[GraphEdge]]:
    """The builder's choice of edges: (self edges, tree edges, closure edges).

    Self edges are keyed by node name in node order; each must join ports 1
    and 3 of its node (the handle-block shape).  Every node after the first
    is attached by the first pending edge, in edge order, that joins it to
    the nodes before it; these tree edges come in node order.  The edges
    left over are closed as handles, in edge order.
    """
    graph.validate()
    self_edges: dict[str, GraphEdge] = {}
    cross_edges: list[GraphEdge] = []
    for e in graph.edges:
        if e.upper[0] == e.lower[0]:
            name = e.upper[0]
            if name in self_edges:
                raise GraphInvalid(f"node {name!r} has two self-edges")
            if {e.upper[1], e.lower[1]} != {1, 3}:
                raise GraphInvalid("a self-edge must join ports 1 and 3")
            self_edges[name] = e
        else:
            cross_edges.append(e)
    in_prefix = {graph.nodes[0].name}
    tree_edges: list[GraphEdge] = []
    for node in graph.nodes[1:]:
        tree_edge = next((e for e in cross_edges
                          if node.name in (e.upper[0], e.lower[0])
                          and {e.upper[0], e.lower[0]} - {node.name} <= in_prefix), None)
        if tree_edge is None:
            raise GraphInvalid(
                f"node {node.name!r} does not connect to the nodes before it; "
                "list nodes in gluing order")
        cross_edges.remove(tree_edge)
        tree_edges.append(tree_edge)
        in_prefix.add(node.name)
    ordered = {nd.name: self_edges[nd.name] for nd in graph.nodes if nd.name in self_edges}
    return ordered, tree_edges, cross_edges


def _loop_twist(twist, upper_port: int) -> np.ndarray:
    """A self edge's twist in the handle orientation X3 = G X1^T G^{-1}.

    That is the twist itself when the upper side is port 3 and inv(G)^T when
    it is port 1.  The map is its own inverse, so it also turns a handle
    twist back into the edge's twist.  A stack of twists maps twist by twist.
    """
    g = np.atleast_2d(np.asarray(twist, dtype=float))
    return np.swapaxes(np.linalg.inv(g), -1, -2) if upper_port == 1 else g


def build_from_graph(graph: GluingGraph, tol: Tolerance = DEFAULT_TOL) -> SurfaceRep:
    """Assemble the surface representation described by a gluing graph.

    Nodes must be listed in gluing order: each node after the first connects
    to the prefix through at least one internal edge.  A self-edge must join
    ports 1 and 3 of its node (the handle-block shape); remaining edges
    between already-joined nodes are closed as handles at the end.  The
    handle signs come in the order component_signature reads them off the
    graph: self-edge handles in node order, then closures in edge order.
    """
    self_edges, tree_edges, closures = _gluing_plan(graph)

    def fresh_block(node: PantsNode) -> SurfaceRep:
        loop = self_edges.get(node.name)
        if loop is None:
            return pants_surface_rep(
                node.params, tol,
                labels=tuple(f"{node.name}.{s}" for s in (1, 2, 3)))
        p = node.params
        tw = _loop_twist(loop.twist, loop.upper[1])
        defect = _twist_defect(tw, p.X1, slot_glue_length(p, 3), tol)
        if defect is not None:
            raise CannotGlue(
                f"self-edge twist incompatible on node {node.name!r} "
                f"(defect {defect:.3e})", edge=loop)
        return close_handle(p.X1, p.X2, tw, tol, label=f"{node.name}.2")

    built = fresh_block(graph.nodes[0])
    handle_signs = built.handle_signs
    for node, tree_edge in zip(graph.nodes[1:], tree_edges):
        block = fresh_block(node)
        handle_signs += block.handle_signs
        if tree_edge.upper[0] == node.name:
            # fresh block on the upper side
            up_label = f"{node.name}.{tree_edge.upper[1]}"
            lo_label = f"{tree_edge.lower[0]}.{tree_edge.lower[1]}"
            built = glue_reps(block, up_label, built, lo_label, tree_edge.twist, tol)
        else:
            up_label = f"{tree_edge.upper[0]}.{tree_edge.upper[1]}"
            lo_label = f"{node.name}.{tree_edge.lower[1]}"
            built = glue_reps(built, up_label, block, lo_label, tree_edge.twist, tol)
    # glue_reps puts the upper side's handles first; restore node order
    built = replace(built, handle_signs=handle_signs)
    for e in closures:
        built = close_pair(
            built,
            upper_label=f"{e.upper[0]}.{e.upper[1]}",
            lower_label=f"{e.lower[0]}.{e.lower[1]}",
            g_twist=e.twist, tol=tol)
    # reorder boundaries to the declared labels
    for target, b in enumerate(graph.boundaries):
        built = _move_boundary(built, f"{b.port[0]}.{b.port[1]}", target)
    relabel = {f"{b.port[0]}.{b.port[1]}": b.label for b in graph.boundaries}
    ports = tuple(replace(p, label=relabel.get(p.label, p.label)) for p in built.ports)
    built = replace(built, ports=ports, graph=graph)
    g_expected, m_expected = graph.surface_type()
    if (built.genus, built.m) != (g_expected, m_expected):
        raise GraphInvalid(
            f"built surface has type {(built.genus, built.m)}, "
            f"graph declares {(g_expected, m_expected)}")
    return _checked_surface(built, tol)


# ---------------------------------------------------------------------------
# component signatures


def _det_sign(m, what: str) -> int:
    """Sign of det(m); a determinant that is exactly zero is refused."""
    d = float(np.linalg.det(as_matrix(m)))
    if d == 0.0:
        raise NotValid(f"{what} determinant sign could not be resolved")
    return int(np.sign(d))


def _handle_signs(length, twist) -> tuple[int, int]:
    return _det_sign(length, "handle length"), _det_sign(twist, "handle twist")


def component_signature(rep_or_graph, tol: Tolerance = DEFAULT_TOL) -> tuple[int, ...]:
    """Determinant-sign vector separating connected components.

    Per handle the signs of the handle length and handle twist; then the
    signs of the raw slot lengths of the first m - 1 boundaries.  The vector
    has length 2 * genus + m - 1 and is constant on connected components of
    the representation space.  A representation gives its handles in
    creation order.  A gluing graph is read without building: self-edge
    handles in node order, then closure edges in edge order, which is the
    order build_from_graph gives the representation of that graph.
    """
    if isinstance(rep_or_graph, GluingGraph):
        self_edges, _, closures = _gluing_plan(rep_or_graph)
        params = {nd.name: nd.params for nd in rep_or_graph.nodes}
        handle_signs = [_handle_signs(params[name].X1, e.twist)
                        for name, e in self_edges.items()]
        handle_signs += [_handle_signs(params[e.lower[0]].matrices()[e.lower[1] - 1], e.twist)
                         for e in closures]
        ports = [b.port for b in rep_or_graph.boundaries]
    else:
        params = rep_or_graph.nodes
        handle_signs = rep_or_graph.handle_signs
        ports = [(p.node, p.slot) for p in rep_or_graph.ports]
    if not ports:
        raise ValueError("component signatures are defined for surfaces with boundary")
    signs = [s for pair in handle_signs for s in pair]
    signs += [_det_sign(params[node].matrices()[slot - 1], "boundary")
              for node, slot in ports[:-1]]
    return tuple(signs)
