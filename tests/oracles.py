"""Test-only oracles: reference computations the library itself never runs.

``cayley`` and ``inverse_cayley`` change between the bounded and the tube
model; ``fixed_point_probe`` searches for fixed points of a standard
boundary element by Newton's method from random seeds; ``stein_kron_solve``
solves the Stein equation as one Kronecker linear system.  ``classify_one``,
``toledo_one`` and ``first_refusal_by_loop`` check pants parameters one
matrix at a time, as the library did before it checked stacks.
``subspace_fixed_point_one`` and ``sampled_points_by_loop`` find attracting
points one matrix and one word at a time, through scipy.linalg.schur, as the
library did before it took stacks of words.  ``transverse_by_svd`` and
``maslov_by_normalization`` decide transversality by the smallest singular
value and compute the Maslov index by moving the outer pair to (0, infinity)
and taking the ``signature`` of the middle point, as the library did before
it read both off the eigenvalues of differences.
"""

from fractions import Fraction

import numpy as np
from scipy.linalg import schur

from maxrep.errors import (
    MaxRepError,
    NearSingular,
    NotInvertible,
    NotMaximal,
    NotSHyperbolic,
    NotTransverse,
    NotValid,
)
from maxrep.limits import reduced_words
from maxrep.maslov import normalize_pair
from maxrep.matcore import (
    DEFAULT_TOL,
    Tolerance,
    _unit_circle_masks,
    as_matrix,
    norm_inf,
    rel_bound,
    require_invertible,
    require_symmetric,
    spectral_radius,
    sym_part,
)
from maxrep.normalform import _ATTRACT_MARGIN, StandardBoundary
from maxrep.pants import PantsParams, ParamClass
from maxrep.symplectic import (
    INFINITY,
    BoundaryPoint,
    SpMat,
    moebius_act,
    sp_inverse,
    swap_symplectic,
)


def signature(s, tol: Tolerance = DEFAULT_TOL) -> int:
    """Number of positive minus number of negative eigenvalues.

    Raises NearSingular when some eigenvalue sits inside the zero band
    eq_tol * ||s||_2; such a spectrum signals a degenerate configuration
    upstream and must not be silently rounded to a sign.
    """
    s = require_symmetric(s, tol, "signature input")
    eigs = np.linalg.eigvalsh(s)
    scale = float(np.max(np.abs(eigs))) if eigs.size else 0.0
    if scale == 0.0:
        raise NearSingular("zero matrix has no signature")
    band = tol.eq_tol * scale
    if np.any(np.abs(eigs) <= band):
        raise NearSingular(
            f"eigenvalue inside zero band (band {band:.3e}, "
            f"closest {np.min(np.abs(eigs)):.3e})")
    return int(np.sum(eigs > 0) - np.sum(eigs < 0))


def cayley(z, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """i (I + Z)(I - Z)^{-1}, the bounded-to-tube change of model.

    Defined only where I - Z is invertible.  The library works in the
    matrix-plus-infinity model throughout; this change of model is a cross
    check for the Maslov index on the circle.
    """
    z = as_matrix(z)
    n = z.shape[0]
    d = np.eye(n) - z
    s = np.linalg.svd(d, compute_uv=False)
    if s[-1] <= tol.eq_tol * max(1.0, s[0]):
        raise NotInvertible("I - Z is singular: the transform is undefined here")
    return 1j * (np.eye(n) + z) @ np.linalg.inv(d)


def inverse_cayley(w, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """(W - iI)(W + iI)^{-1}, inverse of :func:`cayley` on its range."""
    w = np.atleast_2d(np.asarray(w, dtype=complex))
    n = w.shape[0]
    d = w + 1j * np.eye(n)
    s = np.linalg.svd(d, compute_uv=False)
    if s[-1] <= tol.eq_tol * max(1.0, s[0]):
        raise NotInvertible("W + iI is singular: the transform is undefined here")
    return (w - 1j * np.eye(n)) @ np.linalg.inv(d)


def fixed_point_probe(sb: StandardBoundary, n_seeds: int = 100, seed: int = 0,
                      tol: Tolerance = DEFAULT_TOL,
                      cluster_tol: float = 1e-6) -> list[np.ndarray]:
    """Newton search oracle for fixed points of the standard element.

    Runs Newton's method on Y C Y + Y A^{-T} - A Y = 0 from random symmetric
    seeds and clusters the converged solutions.  This is a diagnostic for
    uniqueness statements, never a production solver.
    """
    rng = np.random.default_rng(seed)
    a, s = sb.A, sb.S
    n = sb.n
    c = a + np.linalg.inv(a.T) @ s
    ait = np.linalg.inv(a.T)
    eye = np.eye(n)

    def f(y):
        return y @ c @ y + y @ ait - a @ y

    found: list[np.ndarray] = []
    for _ in range(n_seeds):
        y = sym_part(rng.normal(scale=2.0, size=(n, n)))
        ok = False
        for _ in range(60):
            r = f(y)
            if norm_inf(r) <= 1e-12 * max(1.0, norm_inf(y) ** 2):
                ok = True
                break
            # Jacobian of f at y in row-major vec coordinates
            j = (np.kron(eye, (c @ y).T) + np.kron(y @ c, eye)
                 + np.kron(eye, ait.T) - np.kron(a, eye))
            try:
                step = np.linalg.solve(j, r.reshape(-1)).reshape(n, n)
            except np.linalg.LinAlgError:
                break
            y = sym_part(y - step)
            if not np.all(np.isfinite(y)) or norm_inf(y) > 1e8:
                break
        if ok:
            for z in found:
                if norm_inf(z - y) <= cluster_tol * max(1.0, norm_inf(z)):
                    break
            else:
                found.append(y)
    return found


def stein_kron_solve(a: np.ndarray, q: np.ndarray) -> np.ndarray:
    """P with A^T P A - P = Q from the (n^2 x n^2) system
    (A^T (x) A^T - I) vec(P) = vec(Q) in row-major vec, with two rounds of
    iterative refinement.  A reference for small n and any non-resonant
    spectrum; the library solves the equation on Schur factors instead.
    """
    n = a.shape[0]
    k = np.kron(a.T, a.T) - np.eye(n * n)
    p = np.linalg.solve(k, q.reshape(-1)).reshape(n, n)
    for _ in range(2):
        r = a.T @ p @ a - p - q
        p = p - np.linalg.solve(k, r.reshape(-1)).reshape(n, n)
    return sym_part(p)


def classify_one(p: PantsParams, tol: Tolerance = DEFAULT_TOL) -> ParamClass:
    """Membership class of one parameter triple, one matrix at a time."""
    for name, x in zip(("X1", "X2", "X3"), p.matrices()):
        require_invertible(x, tol, name)
    prod = p.X3 @ np.linalg.inv(p.X2.T) @ p.X1
    if norm_inf(prod - prod.T) > rel_bound(tol.eq_tol, prod):
        return ParamClass.NOT_VALID
    if np.min(np.linalg.eigvalsh(sym_part(prod))) <= rel_bound(tol.eq_tol, prod):
        return ParamClass.NOT_VALID
    band = tol.unit_circle_band
    radii = [spectral_radius(x) for x in p.matrices()]
    if any(r > 1.0 + band for r in radii):
        return ParamClass.IN_TILDE_R
    if all(r < 1.0 - band for r in radii):
        return ParamClass.IN_R_STAR
    return ParamClass.IN_R


def toledo_one(p: PantsParams, tol: Tolerance = DEFAULT_TOL) -> Fraction:
    """(n + sign(X3 (X2^T)^{-1} X1)) / 2 of one parameter triple."""
    require_invertible(p.X2, tol, "X2")
    prod = p.X3 @ np.linalg.inv(p.X2.T) @ p.X1
    if norm_inf(prod - prod.T) > rel_bound(tol.eq_tol, prod):
        raise NotValid("product is not symmetric")
    return Fraction(p.n + signature(sym_part(prod), tol), 2)


def first_refusal_by_loop(snapshots, tol: Tolerance = DEFAULT_TOL):
    """(snapshot index, node name, error class) of the first snapshot node
    that is not a valid maximal parameter set, snapshot by snapshot and node
    by node in graph order, or None.  snapshots is a sequence of lists of
    (node name, PantsParams)."""
    for i, nodes in enumerate(snapshots):
        for name, p in nodes:
            try:
                cls = classify_one(p, tol)
                if cls in (ParamClass.NOT_VALID, ParamClass.IN_TILDE_R):
                    raise NotValid(cls)
                if 2 * toledo_one(p, tol) != 2 * p.n:
                    raise NotMaximal(name)
            except MaxRepError as exc:
                return i, name, type(exc)
    return None


def subspace_fixed_point_one(g: SpMat, tol: Tolerance = DEFAULT_TOL):
    """(point, fixed, rho) of the expanding invariant subspace of one element.

    The subspace of the eigenvalues of modulus above 1 must have dimension
    n (else NotSHyperbolic); its chart point is u1 u2^{-1}, or infinity when
    u2 is singular within eq_tol.  The point is fixed when g moves it by at
    most sqrt(eq_tol) * max(1, |Y|), and rho is the spectral radius of
    A - Y C, both read in the swapped chart X -> -X^{-1} for infinity.
    """
    n = g.n
    try:
        _, z, k = schur(g.m, output="real",
                        sort=lambda re, im: re * re + im * im > 1.0)
    except np.linalg.LinAlgError as exc:
        raise NotSHyperbolic(f"expanding subspace cannot be separated: {exc}") from exc
    if k != n:
        raise NotSHyperbolic(f"expanding subspace has dimension {k}, expected {n}")
    u1, u2 = z[:n, :k], z[n:, :k]
    s = np.linalg.svd(u2, compute_uv=False)
    if s[-1] <= tol.eq_tol * max(1.0, s[0]):
        pt = INFINITY
    else:
        pt = BoundaryPoint(sym_part(u1 @ np.linalg.inv(u2)))
    p = pt
    if p.is_infinity:
        sw = swap_symplectic(n)
        g = sw @ g @ sp_inverse(sw)
        p = BoundaryPoint(np.zeros((n, n)))
    y = p.value
    img = g.A @ y + g.B - y @ (g.C @ y + g.D)
    fixed = norm_inf(img) <= rel_bound(np.sqrt(tol.eq_tol), y)
    m = g.A - y @ g.C
    return pt, fixed, float(np.max(np.abs(np.linalg.eigvals(m))))


def sampled_points_by_loop(rep, max_word_length: int, tol: Tolerance = DEFAULT_TOL):
    """(word, attracting point) pairs and the skipped count of
    limit_set_sample, one word matrix at a time from a cache of every word."""
    gens = rep.generator_images()
    matrices = {}
    for l, g in gens.items():
        matrices[l] = g
        matrices[l + "-"] = sp_inverse(g)
    points, skipped, cache = [], 0, {}
    for word in reduced_words(list(gens), max_word_length):
        mat = matrices[word[0]] if len(word) == 1 else cache[word[:-1]] @ matrices[word[-1]]
        cache[word] = mat
        if np.any(_unit_circle_masks(mat.m, tol.unit_circle_band)[1]):
            skipped += 1
            continue
        try:
            pt, fixed, rho = subspace_fixed_point_one(mat, tol)
        except NotSHyperbolic:
            skipped += 1
            continue
        if not fixed or rho > 1.0 - max(tol.unit_circle_band, _ATTRACT_MARGIN):
            skipped += 1
            continue
        points.append((" ".join(word), pt))
    return points, skipped


def transverse_by_svd(p: BoundaryPoint, q: BoundaryPoint, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Smallest singular value of X - Y above tol.eq_tol * max(1, |X|, |Y|);
    infinity is transverse to finite points and not to itself."""
    if p.is_infinity or q.is_infinity:
        return p.is_infinity != q.is_infinity
    smin = np.linalg.svd(p.value - q.value, compute_uv=False)[-1]
    return smin > rel_bound(tol.eq_tol, p.value, q.value)


def maslov_by_normalization(p1: BoundaryPoint, p2: BoundaryPoint, p3: BoundaryPoint,
                            tol: Tolerance = DEFAULT_TOL) -> int:
    """The Maslov index of (p1, p2, p3): after checking the pairs (1, 2),
    (1, 3), (2, 3) by transverse_by_svd, a symplectic g from normalize_pair
    takes (p1, p3) to (0, infinity), and the index is the signature of g.p2."""
    pts = (p1, p2, p3)
    for a, b in ((0, 1), (0, 2), (1, 2)):
        if not transverse_by_svd(pts[a], pts[b], tol):
            raise NotTransverse(f"points {a + 1} and {b + 1} are not transverse")
    g = normalize_pair(p1, p3, tol)
    q2 = moebius_act(g, p2, tol)
    if q2.is_infinity:
        raise NotTransverse("middle point maps to infinity under normalization")
    return signature(q2.value, tol)
