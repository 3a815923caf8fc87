"""Seeded fixtures shared by the test suite.

Random parameters, symplectic elements and boundary points, and random chain
graphs; ``glued_by_two_builds``, the reference join of two surfaces that the
one build of their union graph is compared with; ``ld_matmul_chain``, the
reference extended-precision product that the gluing kernel is compared with;
``hitchin_pants``, the image of an n = 1 pants under the irreducible
``sym_power``, whose coordinates are known in closed form.  Everything takes an
explicit ``numpy.random.Generator``; nothing here touches global random
state.  The "tame" generators rejection-sample
moderate spectral radii and condition numbers so that glued conjugations stay
well inside the residual budgets; the plain generators only cap the
condition number.
"""

import functools
import math

import numpy as np
from scipy.optimize import minimize

import maxrep.gluing
from maxrep.deform import _chain_plan
from maxrep.errors import MaxRepError, Slices
from maxrep.gluing import (
    GluingGraph,
    GraphBoundary,
    GraphEdge,
    PantsNode,
    _amalgamate,
    _assemble,
    _edge_twists,
    _surface_rep,
    glue_graphs,
    slot_glue_length,
)
from maxrep.matcore import DEFAULT_TOL, Tolerance, as_matrix, check_finite, require_invertible
from maxrep.pants import PantsParams, PantsRep, build_maximal
from maxrep.symplectic import (
    INFINITY,
    BoundaryPoint,
    SpMat,
    _pair_spectra,
    _point_stack,
    _rotations,
    diag_symplectic,
    finite_point,
    make_symplectic,
    shear_symplectic,
    translation_symplectic,
)


def spectral_radius(x) -> float:
    x = as_matrix(x)
    check_finite(x)
    return float(np.max(np.abs(np.linalg.eigvals(x)))) if x.size else 0.0


def transversality_margin(p: BoundaryPoint, q: BoundaryPoint) -> float:
    """Smallest singular value of X - Y; +inf against infinity, -inf for two infinities."""
    eigs, ok = _pair_spectra(_point_stack((p, q)), [0], [1], DEFAULT_TOL)
    if p.is_infinity or q.is_infinity:
        return np.inf if ok[0] else -np.inf
    return float(np.min(np.abs(eigs)))


def pants_product(p, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """X3 (X2^T)^{-1} X1, the matrix whose shape controls everything."""
    x1, x2, x3 = p.X1, p.X2, p.X3
    require_invertible(x2, tol, "X2")
    return x3 @ np.linalg.inv(x2.T) @ x1


def outcomes(slices) -> list:
    """The value or the refusal of each slice of a stacked kernel's outcome."""
    return [r if r is not None else slices.values[i] for i, r in enumerate(slices.refusals)]


def point_outcomes(slices, at_inf) -> list:
    """outcomes of a kernel whose values are chart values, zero where at_inf
    (_subspace_fixed_points), each value read as a BoundaryPoint."""
    return [r if r is not None else INFINITY if inf else BoundaryPoint(y)
            for r, y, inf in zip(slices.refusals, slices.values, np.asarray(at_inf).tolist())]


def _raw(x) -> bytes:
    """The bytes of a matrix, SpMat, PantsRep or boundary point; the repr of
    anything else."""
    if hasattr(x, "generators"):
        return b"".join(_raw(g) for g in x.generators()) + repr(x.relation_residual).encode()
    if isinstance(x, BoundaryPoint):
        return b"inf" if x.is_infinity else _raw(x.value)
    if isinstance(x, (np.ndarray, SpMat)):
        return np.ascontiguousarray(getattr(x, "m", x)).tobytes()
    return repr(x).encode()


def assert_slices_match(slices, one_slice, cases):
    """Each slice i of a stacked kernel's outcome, or of a list of outcomes,
    is what one_slice(*cases[i]) returns, bit for bit, or a refusal of the
    class and message it raises."""
    got = slices if isinstance(slices, list) else outcomes(slices)
    assert len(got) == len(cases)
    for i, case in enumerate(cases):
        try:
            want = one_slice(*case)
        except MaxRepError as exc:
            assert (type(got[i]), str(got[i])) == (type(exc), str(exc)), i
            continue
        assert not isinstance(got[i], MaxRepError), (i, got[i])
        assert _raw(got[i]) == _raw(want), i


def ld_matmul_chain(*mats) -> np.ndarray:
    """The reference extended-precision product of SpMat factors: a
    sequential np.longdouble `@` chain, rounded to float64."""
    acc = mats[0].m.astype(np.longdouble)
    for m in mats[1:]:
        acc = acc @ m.m.astype(np.longdouble)
    return acc.astype(np.float64)


def random_orthogonal(n: int, rng: np.random.Generator) -> np.ndarray:
    q, r = np.linalg.qr(rng.normal(size=(n, n)))
    return q * np.sign(np.diag(r))


def random_spd(n: int, rng: np.random.Generator,
               eig_range: tuple[float, float] = (0.8, 1.25)) -> np.ndarray:
    q = random_orthogonal(n, rng)
    return q @ np.diag(rng.uniform(*eig_range, size=n)) @ q.T


def random_contracting(n: int, rng: np.random.Generator,
                       rho_range: tuple[float, float] = (0.3, 0.8),
                       spread: float = 1.18, negative_det: bool | None = None) -> np.ndarray:
    """Contracting matrix with singular values within a factor `spread` of each
    other, rescaled to a spectral radius drawn from rho_range."""
    d = np.diag(rng.uniform(1.0 / spread, spread, size=n))
    m = random_orthogonal(n, rng) @ d @ random_orthogonal(n, rng)
    if negative_det is not None:
        det = np.linalg.det(m)
        if (det < 0) != negative_det:
            m[0] = -m[0]
    return m * (rng.uniform(*rho_range) / spectral_radius(m))


def random_invertible(n: int, rng: np.random.Generator,
                      sv_range: tuple[float, float] = (0.8, 1.25),
                      negative_det: bool | None = None) -> np.ndarray:
    m = random_orthogonal(n, rng) @ np.diag(rng.uniform(*sv_range, size=n)) \
        @ random_orthogonal(n, rng)
    if negative_det is not None:
        det = np.linalg.det(m)
        if (det < 0) != negative_det:
            m[0] = -m[0]
    return m


def derive_third_length(x1: np.ndarray, rng: np.random.Generator,
                        rho_max: float = 0.85,
                        x2_rho: tuple[float, float] = (0.3, 0.55),
                        spd_range: tuple[float, float] = (0.8, 1.25),
                        ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(X2, X3, S) completing a given X1 to parameters with product S.

    X3 = S X1^{-1} X2^T; scaling X2 and X3 jointly leaves the product S
    untouched, so the pair is rescaled until X3 is safely contracting.
    """
    n = x1.shape[0]
    x2 = random_contracting(n, rng, x2_rho)
    s = random_spd(n, rng, spd_range)
    x3 = s @ np.linalg.inv(x1) @ x2.T
    rho = spectral_radius(x3)
    if rho > rho_max:
        mu = rho_max / rho * rng.uniform(0.8, 1.0)
        x2, x3 = mu * x2, mu * x3
    return x2, x3, s


def random_pants_params(n: int, rng: np.random.Generator,
                        cond_max: float = 1e3,
                        tame: bool = False) -> PantsParams:
    """Random parameters in the strictly contracting cone.

    With tame=True the spectral radii stay moderate and the condition
    numbers small, suitable for downstream gluing; otherwise only the
    condition cap is enforced.
    """
    while True:
        if tame:
            x1 = random_contracting(n, rng, (0.5, 0.8))
        else:
            x1 = random_contracting(n, rng, (0.2, 0.9), spread=2.0)
        x2, x3, _ = derive_third_length(x1, rng)
        params = PantsParams(x1, x2, x3)
        conds = [np.linalg.cond(x) for x in params.matrices()]
        if max(conds) <= (50.0 if tame else cond_max):
            return params


def random_handle_data(n: int, rng: np.random.Generator,
                       rho_max: float = 0.8,
                       length_negative_det: bool | None = None,
                       twist_negative_det: bool | None = None,
                       ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(X1, X2, H) valid for closing a handle: X1 contracting, H invertible,
    and the derived product positive definite with X2 contracting."""
    while True:
        x1 = random_contracting(n, rng, (0.45, 0.75), negative_det=length_negative_det)
        h = random_invertible(n, rng, negative_det=twist_negative_det)
        s = random_spd(n, rng)
        x2 = np.linalg.inv(h.T) @ x1 @ h.T @ np.linalg.inv(s) @ x1.T
        rho = spectral_radius(x2)
        if rho > rho_max:
            x2 = x2 * (rho_max / rho * rng.uniform(0.8, 1.0))
        if np.linalg.cond(x2) <= 50.0:
            return x1, x2, h


def random_symplectic(n: int, rng: np.random.Generator,
                      cond_max: float = 1e2, scale: float = 0.4) -> SpMat:
    """Random symplectic element of bounded condition number.

    Built as diag(M, M^{-T}) . translation . shear with moderate blocks,
    resampled until the condition cap holds.
    """
    while True:
        m = random_invertible(n, rng, (0.75, 1.3))
        b = scale * random_spd(n, rng, (0.3, 1.0)) * rng.choice([-1.0, 1.0])
        w = scale * random_spd(n, rng, (0.3, 1.0)) * rng.choice([-1.0, 1.0])
        g = diag_symplectic(m) @ translation_symplectic(b) @ shear_symplectic(w)
        if np.linalg.cond(g.m) <= cond_max:
            return g


def random_boundary_point(n: int, rng: np.random.Generator,
                          p_infinity: float = 0.15,
                          scale: float = 1.0) -> BoundaryPoint:
    if rng.uniform() < p_infinity:
        return INFINITY
    s = rng.normal(size=(n, n)) * scale
    return finite_point((s + s.T) / 2)


def assert_points_close(p: BoundaryPoint, q: BoundaryPoint, rel: float = 1e-12):
    """Same infinity flag, and finite values within rel * max(1, |q|) entrywise."""
    assert p.is_infinity == q.is_infinity
    if not q.is_infinity:
        assert np.max(np.abs(p.value - q.value)) <= rel * max(1.0, np.max(np.abs(q.value)))


def random_transverse_points(n: int, rng: np.random.Generator, count: int,
                             p_infinity: float = 0.15,
                             margin: float = 1e-3,
                             max_tries: int = 1000) -> list[BoundaryPoint]:
    """Pairwise transverse boundary points with a safety margin.

    The margin keeps subsequent integer invariants away from tolerance
    bands, so properties asserted exactly really are exact.
    """
    pts: list[BoundaryPoint] = []
    tries = 0
    while len(pts) < count:
        tries += 1
        if tries > max_tries:
            raise RuntimeError("could not sample transverse points; margin too strict")
        cand = random_boundary_point(n, rng, p_infinity if not any(
            p.is_infinity for p in pts) else 0.0)
        if all(transversality_margin(cand, p) > margin for p in pts):
            pts.append(cand)
    return pts


def sym_power(g: np.ndarray, n: int) -> np.ndarray:
    """The image of g in SL(2, R) under the irreducible Sym^N: SL(2, R) ->
    Sp(2n, R), N = 2n - 1, on binary forms of degree N.  The monomials
    e1^(N-k) e2^k carry the invariant form (-1)^k delta(k + l, N) / C(N, k),
    and the symplectic basis is u_k = e1^(N-k) e2^k and
    v_k = (-1)^(k+n+1) C(N, k) e1^k e2^(N-k) for k < n; that sign makes the
    image of a maximal n = 1 triple maximal, the other sign gives index -n."""
    big_n = 2 * n - 1
    (a, b), (c, d) = g
    power = lambda f, m: functools.reduce(np.convolve, [f] * m, np.ones(1))
    # column j: (a e1 + c e2)^(N-j) (b e1 + d e2)^j in powers of e2 / e1
    s = np.array([np.convolve(power([a, c], big_n - j), power([b, d], j)) for j in range(big_n + 1)]).T
    basis = np.zeros((big_n + 1, 2 * n))
    for k in range(n):
        basis[k, k] = 1.0
        basis[big_n - k, n + k] = (-1) ** (k + n + 1) * math.comb(big_n, k)
    return np.linalg.solve(basis, s @ basis)


def hitchin_pants(n: int, rng: np.random.Generator) -> tuple[PantsParams, PantsRep]:
    """A tame n = 1 pants (x1, x2, x3), Fuchsian and so maximal, and its image
    under sym_power (Hitchin, Topology 31 (1992)), whose recovered lengths
    have the spectral moduli {|x_i|^(2k-1) : k = 1..n}.  The n = 1 images are
    first conjugated by the upper-triangular element of SL(2, R) that
    minimises their summed squared Frobenius norms; without it the entries
    reach 1e6 at n = 4."""
    p = random_pants_params(1, rng, tame=True)
    gens = [c.m for c in build_maximal(p).generators()]

    def conj(v):
        u = np.array([[np.exp(v[0]), v[1]], [0.0, np.exp(-v[0])]])
        return [np.linalg.solve(u, g) @ u for g in gens]

    v = minimize(lambda v: sum(np.sum(g ** 2) for g in conj(v)), np.zeros(2), method="Nelder-Mead").x
    images = [sym_power(g, n) for g in conj(v)]
    return p, PantsRep(*(make_symplectic(m[:n, :n], m[:n, n:], m[n:, :n], m[n:, n:]) for m in images))


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
    """Make every twist element the gluing step forms NaN, as an overflow would.

    The gluing step forms its twist elements through the stacked kernel
    maxrep.gluing._twist_elements, so that is what is patched; a slice the
    kernel refuses keeps its refusal."""
    real_twists = maxrep.gluing._twist_elements

    def nan_twists(*args, **kwargs):
        out = real_twists(*args, **kwargs)
        out.values = np.full_like(out.values, np.nan)
        return out

    monkeypatch.setattr(maxrep.gluing, "_twist_elements", nan_twists)


def glued_by_two_builds(upper, upper_label, lower, lower_label, twist, tol: Tolerance = DEFAULT_TOL):
    """The representation of glue_graphs(upper, upper_label, lower,
    lower_label, twist) as the two sides' own assemblies joined along the
    new edge by one _amalgamate, with each generator image formed and the
    relation checked once at the end and the node checks of the two builds
    in union order."""
    graph = glue_graphs(upper, upper_label, lower, lower_label, twist)
    (piece1, checks1), (piece2, checks2) = _assemble(upper, tol), _assemble(lower, tol)
    edge, params = graph.edges[-1], {nd.name: nd.params for nd in graph.nodes}
    tw = _edge_twists([(params[edge.upper[0]], edge.upper[1], params[edge.lower[0]], edge.lower[1],
                        edge.twist)], tol)
    piece = _amalgamate(piece1, upper_label, piece2, lower_label, SpMat(tw[0]),
                         tuple(SpMat(u) for u in _rotations(graph.n)))
    checks = Slices(len(graph.nodes))
    checks.values = checks1.values + checks2.values
    return _surface_rep(piece, checks, graph, tol)
