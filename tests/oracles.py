"""Test-only oracles: reference computations the library itself never runs.

``cayley`` and ``inverse_cayley`` change between the bounded and the tube
model; ``fixed_point_probe`` searches for fixed points of a standard
boundary element by Newton's method from random seeds; ``stein_kron_solve``
solves the Stein equation as one Kronecker linear system.  ``classify_one``,
``toledo_one`` and ``first_refusal_by_loop`` check pants parameters one
matrix at a time, as the library did before it checked stacks.
``chart_points_by_svd`` decides infinity for every frame by singular values,
as the library did before it screened frames by their determinant.
``subspace_fixed_point_one`` and ``sampled_points_by_loop`` find attracting
points one matrix and one word at a time, through scipy.linalg.schur, as the
library did before it took stacks of words, over the words that
``reduced_words_by_extension`` lists by extending each shorter word, as the
library did before it kept index tables of words; ``attracting_defect``
measures how far a word moves its point.  ``transverse_by_svd`` and
``maslov_by_normalization`` decide transversality by the smallest singular
value and compute the Maslov index by moving the outer pair to (0, infinity)
and taking the ``signature`` of the middle point, as the library did before
it read both off the eigenvalues of differences.  ``normalize_pair_by_moves``
and ``normalize_triple_by_moves`` move a pair to (0, infinity) and a maximal
triple to (0, e, infinity) by a swap, a translation and a shear, as the
library did before it read both off the pairings of graph frames.  ``cluster_by_loop``
compares each point with every point kept before it, as the library did
before it compared points inside a window of the trace order and resolved
the greedy rule in rounds.
``unrank3_by_comb`` names the r-th triple of combinations(range(d), 3) by
counting the triples that start with each index, in Python integers.
``fingerprint_by_words`` forms the trace of each word of the pants
fingerprint one matrix product at a time, as the library did before it
contracted stacks of words.
``fingerprint_one`` and ``fingerprint_distance_by_two_passes`` fingerprint
one triple per call and two triples in two calls, as the library did before
it fingerprinted both triples of a distance in one stacked pass.
``commutant_operator_by_kron`` forms the commutation operator of
``commutant_search`` from one Kronecker product per term, stacked by vstack,
and ``pants_blocks_by_six_inverses`` forms the pants generator blocks with six
separate inverses, as the library did before it formed both in one call.
``canonical_points_as_objects`` finds the canonical point of each element of
a stack as a BoundaryPoint, validating each chart hit as a StandardBoundary
and calling the subspace route even when no slice is left for it, as the
library did before it handed canonical points on as one array stack.
``NotInvertible`` is the refusal of the Cayley transforms at a singular point.
"""

import itertools
import math
from fractions import Fraction

import numpy as np
from scipy.linalg import schur

from maxrep.errors import (
    MathematicalRefusal,
    MaxRepError,
    NearSingular,
    NoCanonicalFixedPoint,
    NotFixed,
    NotMaximal,
    NotSHyperbolic,
    NotTransverse,
    NotValid,
    Slices,
    gate,
)
from maxrep.matcore import (
    DEFAULT_TOL,
    Tolerance,
    _unit_circle_masks,
    as_matrix,
    norm_inf,
    rel_bound,
    require_invertible,
    require_symmetric,
    sym_part,
)
from maxrep.normalform import (
    _ATTRACT_MARGIN,
    _NO_CANONICAL,
    _NONEXPAND_SLACK,
    StandardBoundary,
    _canonical_fixed_point,
    _subspace_fixed_points,
)
from maxrep.pants import PantsParams, ParamClass
from maxrep.symplectic import (
    INFINITY,
    BoundaryPoint,
    SpMat,
    _rotations,
    _stack_points,
    diag_symplectic,
    moebius_act,
    point_distance,
    shear_symplectic,
    sp_inverse,
    swap_symplectic,
    translation_symplectic,
    transverse,
)
from tests_support import spectral_radius


class NotInvertible(MathematicalRefusal):
    """A matrix required to be invertible is singular within tolerance."""


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
    n = sb.A.shape[0]
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


def chart_points_by_svd(zs: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> tuple[np.ndarray, np.ndarray]:
    """(values, at_inf) of a stack of orthonormal (2n, n) frames [u1; u2]:
    infinity where the singular values of u2 give sigma_min <= eq_tol *
    max(1, sigma_max), every slice decided by its singular values, and the
    value u1 u2^{-1} (symmetrised) elsewhere, zero at infinity."""
    n = zs.shape[-1]
    u1, u2 = zs[:, :n], zs[:, n:]
    s = np.linalg.svd(u2, compute_uv=False)
    at_inf = s[:, -1] <= tol.eq_tol * np.maximum(1.0, s[:, 0])
    ys = sym_part(u1 @ np.linalg.inv(np.where(at_inf[:, None, None], np.eye(n), u2)))
    ys[at_inf] = 0.0
    return ys, at_inf


def reduced_words_by_extension(letters: list[str], max_len: int):
    """Freely reduced words over letters and their inverses ("x" and "x-"),
    shortest first, each word of a length extended by every letter and then
    every inverse that does not cancel its last letter."""
    def inverse(l: str) -> str:
        return l[:-1] if l.endswith("-") else l + "-"

    alphabet = letters + [inverse(l) for l in letters]
    frontier = [()]
    for _ in range(max_len):
        frontier = [w + (l,) for w in frontier for l in alphabet if not w or inverse(l) != w[-1]]
        yield from frontier


def sampled_points_by_loop(rep, max_word_length: int, tol: Tolerance = DEFAULT_TOL):
    """(word, attracting point, word matrix) triples and the skipped count of
    limit_set_sample, one word matrix at a time from a cache of every word."""
    gens = rep.generator_images()
    matrices = {}
    for l, g in gens.items():
        matrices[l] = g
        matrices[l + "-"] = sp_inverse(g)
    points, skipped, cache = [], 0, {}
    for word in reduced_words_by_extension(list(gens), max_word_length):
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
        points.append((" ".join(word), pt, mat))
    return points, skipped


def attracting_defect(g: SpMat, p: BoundaryPoint) -> float:
    """How far g moves p, max|g.p - p| / max(1, |p|) entrywise, with the
    action (AY + B)(CY + D)^{-1} read at 0 in the swapped chart X -> -X^{-1}
    when p is infinity."""
    if p.is_infinity:
        sw = swap_symplectic(g.n)
        g, p = sw @ g @ sp_inverse(sw), BoundaryPoint(np.zeros((g.n, g.n)))
    y = p.value
    moved = np.linalg.solve((g.C @ y + g.D).T, (g.A @ y + g.B).T).T
    return float(np.max(np.abs(moved - y)) / max(1.0, np.max(np.abs(y))))


def transverse_by_svd(p: BoundaryPoint, q: BoundaryPoint, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Smallest singular value of X - Y above tol.eq_tol * max(1, |X|, |Y|);
    infinity is transverse to finite points and not to itself."""
    if p.is_infinity or q.is_infinity:
        return p.is_infinity != q.is_infinity
    smin = np.linalg.svd(p.value - q.value, compute_uv=False)[-1]
    return smin > rel_bound(tol.eq_tol, p.value, q.value)


def normalize_pair_by_moves(p1: BoundaryPoint, p3: BoundaryPoint,
                            tol: Tolerance = DEFAULT_TOL) -> SpMat:
    """A symplectic g with g.p1 = 0 and g.p3 = infinity, from at most three
    elementary moves: a swap if p1 is infinite, a translation taking p1 to 0,
    and a shear X -> X(WX+I)^{-1} killing the image of p3."""
    if not transverse(p1, p3, tol):
        raise NotTransverse("cannot normalize a non-transverse pair")
    if p1.is_infinity:
        g = swap_symplectic(p3.value.shape[0])
    else:
        g = translation_symplectic(-p1.value, tol)
    q3 = moebius_act(g, p3, tol)
    if not q3.is_infinity:
        # q3 is invertible because it is transverse to 0
        g = shear_symplectic(-np.linalg.inv(q3.value), tol) @ g
    return g


def normalize_triple_by_moves(p1: BoundaryPoint, p2: BoundaryPoint, p3: BoundaryPoint,
                              tol: Tolerance = DEFAULT_TOL) -> SpMat:
    """An h taking a maximal triple to (0, e, infinity): normalize_pair_by_moves
    on the outer pair, then diag(M^{-1}, M^T) with M the Cholesky factor of
    the image of the middle point, which must be finite."""
    g = normalize_pair_by_moves(p1, p3, tol)
    q2 = moebius_act(g, p2, tol)
    if q2.is_infinity:
        raise NotTransverse("middle point maps to infinity under normalization")
    return diag_symplectic(np.linalg.inv(np.linalg.cholesky(q2.value))) @ g


def maslov_by_normalization(p1: BoundaryPoint, p2: BoundaryPoint, p3: BoundaryPoint,
                            tol: Tolerance = DEFAULT_TOL) -> int:
    """The Maslov index of (p1, p2, p3): after checking the pairs (1, 2),
    (1, 3), (2, 3) by transverse_by_svd, a symplectic g from
    normalize_pair_by_moves takes (p1, p3) to (0, infinity), and the index is
    the signature of g.p2."""
    pts = (p1, p2, p3)
    for a, b in ((0, 1), (0, 2), (1, 2)):
        if not transverse_by_svd(pts[a], pts[b], tol):
            raise NotTransverse(f"points {a + 1} and {b + 1} are not transverse")
    g = normalize_pair_by_moves(p1, p3, tol)
    q2 = moebius_act(g, p2, tol)
    if q2.is_infinity:
        raise NotTransverse("middle point maps to infinity under normalization")
    return signature(q2.value, tol)


def cluster_by_loop(points, cluster_tol: float) -> list[BoundaryPoint]:
    """First-come greedy clustering: a point is dropped when point_distance
    to a point kept before it is at most cluster_tol * max(1, |point|)."""
    kept = []
    for pt in points:
        scale = 1.0 if pt.is_infinity else max(1.0, norm_inf(pt.value))
        if not any(point_distance(pt, q) <= cluster_tol * scale for q in kept):
            kept.append(pt)
    return kept


def unrank3_by_comb(r: int, d: int) -> tuple[int, int, int]:
    """The r-th triple of itertools.combinations(range(d), 3), one index at a
    time: C(d - 1 - i, size - 1) triples extend each choice i."""
    out, low = [], 0
    for size in (3, 2, 1):
        i = low
        while r >= math.comb(d - 1 - i, size - 1):
            r -= math.comb(d - 1 - i, size - 1)
            i += 1
        out.append(i)
        low = i + 1
    return tuple(out)


def fingerprint_by_words(p: PantsParams) -> np.ndarray:
    """Traces of the words of length <= 3 in X1, X2, X3, X1^T, X2^T, X3^T,
    by length and then in itertools.product order, one word at a time."""
    letters = (p.X1, p.X2, p.X3, p.X1.T, p.X2.T, p.X3.T)
    values = []
    for length in (1, 2, 3):
        for word in itertools.product(letters, repeat=length):
            m = word[0]
            for w in word[1:]:
                m = m @ w
            values.append(np.trace(m))
    return np.array(values)


def fingerprint_one(p: PantsParams) -> np.ndarray:
    """The pants fingerprint of one triple, by one contraction over its words."""
    m = np.array(p.matrices())
    m = np.concatenate((m, np.swapaxes(m, 1, 2)))
    # row 6a + b of l2 is the word (a, b), so entry (6a + b, c) below is (a, b, c)
    l2 = (m[:, None] @ m[None]).reshape(36, p.n, p.n)
    return np.concatenate((np.einsum("kii->k", m), np.einsum("kii->k", l2),
                           np.einsum("aij,cji->ac", l2, m).reshape(-1)))


def fingerprint_distance_by_two_passes(p: PantsParams, q: PantsParams) -> float:
    """fingerprint_distance from two fingerprint_one calls."""
    if p.n != q.n:
        return float("inf")
    fp, fq = fingerprint_one(p), fingerprint_one(q)
    scale = max(1.0, float(np.max(np.abs(fp))), float(np.max(np.abs(fq))))
    return float(np.max(np.abs(fp - fq))) / scale


def commutant_operator_by_kron(pairs) -> np.ndarray:
    """The stacked operators I (x) X^T - Y (x) I of vec(K X - Y K), one pair (X, Y) each."""
    n = pairs[0][0].shape[0]
    eye = np.eye(n)
    return np.vstack([np.kron(eye, x.T) - np.kron(y, eye) for x, y in pairs])


def pants_blocks_by_six_inverses(x1: np.ndarray, x2: np.ndarray, x3: np.ndarray,
                                 ik: np.ndarray) -> tuple[np.ndarray, ...]:
    """The blocks of the three pants generator images with middle fixed point
    ik, each of the six inverses from its own np.linalg.inv call."""
    t, inv, z = (lambda m: m.swapaxes(-1, -2)), np.linalg.inv, np.zeros_like(x1)
    x1ti, x2i, x2ti, x3i, x3ti = inv(t(x1)), inv(x2), inv(t(x2)), inv(x3), inv(t(x3))
    t13 = x3i @ t(x1)
    c1 = (x1, z, x2i @ t(x3) + ik @ x1, x1ti)
    c2 = (-ik @ x2ti - ik @ t13 @ ik - x2 @ ik, ik @ t13 + x2,
          -x2ti - t13 @ ik, t13)
    c3 = (x3ti, -x3ti @ ik - inv(x1) @ t(x2), z, x3)
    return c1, c2, c3


def canonical_points_as_objects(ms: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> Slices:
    """The canonical point of each slice of a (k, 2n, 2n) stack, the values
    BoundaryPoints: a SpMat and a StandardBoundary per chart hit, and one
    _subspace_fixed_points call for the slices left, empty or not."""
    n = ms.shape[-1] // 2
    out = Slices(len(ms))
    ms = out.screen(ms)
    rots = _rotations(n)
    ls = rots[:3] @ ms[:, None] @ rots[3:]
    lower = ~(np.abs(ls[..., :n, n:]).max(axis=(-2, -1))
              > tol.eq_tol * np.maximum(1.0, np.abs(ls).max(axis=(-2, -1))))
    points, faults = np.full(len(ms), None), [None] * len(ms)
    for i in np.flatnonzero(lower.any(axis=1)):
        try:
            for j in np.flatnonzero(lower[i]):
                l = SpMat(ls[i, j])
                s_part = sym_part(l.A.T @ l.C - l.A.T @ l.A)
                try:
                    eigs = np.linalg.eigvalsh(s_part)
                except np.linalg.LinAlgError:
                    continue
                if np.min(eigs) > rel_bound(tol.eq_tol, s_part):
                    sb = StandardBoundary(l.A, s_part, tol)
                    y = BoundaryPoint(_canonical_fixed_point(sb.A, sb.S, tol))
                    points[i] = moebius_act(SpMat(rots[3 + j]), y, tol)
                    break
        except MaxRepError as exc:
            faults[i] = exc
    ms, points = out.refuse(faults, ms, points)
    rest = np.array([pt is None for pt in points], dtype=bool)
    found, at_inf, moved, band, rho, _ = _subspace_fixed_points(ms[rest], tol)
    rho = found.refuse(gate("fixed-point displacement", moved, band, NotFixed, "point moves by {:.3e}"), rho)
    found.refuse(gate("differential spectral radius", rho, 1.0 + max(tol.unit_circle_band, _NONEXPAND_SLACK),
                      NotSHyperbolic, "action expands by {:.3e}"))
    faults = np.full(len(ms), None)
    points[rest] = _stack_points(found.values, at_inf)
    faults[rest] = [r and NoCanonicalFixedPoint(f"{_NO_CANONICAL}: {r}", r.stage, r.measured, r.bound)
                    for r in found.refusals]
    return out.finish(out.refuse(faults, points))
