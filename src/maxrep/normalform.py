"""Canonical fixed points and dynamical classification of boundary isometries.

The standard boundary element with data (A, S), A invertible and S symmetric
positive definite, is the block-lower-triangular symplectic matrix

    c = [[A, 0], [A + A^{-T} S, A^{-T}]].

Its fixed points in the matrix chart solve Y C Y + Y A^{-T} - A Y = 0 with
C = A + A^{-T} S.  The canonical fixed point is the unique one at which the
differential is non-expanding; it is 0 when no eigenvalue of A lies outside
the unit circle.  For any element, standard or conjugated, it is read off
one sorted real Schur form or eigen-decomposition of the full matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    NoCanonicalFixedPoint,
    NotContracting,
    NotFixed,
    NotSHyperbolic,
    Slices,
    gate,
)
from .matcore import (
    DEFAULT_TOL,
    Tolerance,
    _real_schur,
    _singularity,
    _unit_circle_masks,
    check_finite,
    rel_bound,
    require_invertible,
    require_symmetric,
    stein_solve,
    sym_part,
)
from .symplectic import (
    BoundaryPoint,
    SpMat,
    _point_stack,
    _stack_points,
    make_symplectic,
    sp_inverse,
    swap_symplectic,
)

__all__ = [
    "StandardBoundary",
    "DifferentialMap",
    "fixed_point_expanding_side",
    "differential_at",
    "attracting_point",
    "canonical_point_of_element",
]


@dataclass(frozen=True, eq=False)
class StandardBoundary:
    """Data (A, S) of a standard boundary element; S must be positive definite."""

    A: np.ndarray
    S: np.ndarray
    tol: Tolerance = DEFAULT_TOL

    def __post_init__(self):
        a = require_invertible(self.A, self.tol, "length block A")
        s = require_symmetric(self.S, self.tol, "shape block S")
        if np.min(np.linalg.eigvalsh(s)) <= rel_bound(self.tol.eq_tol, s):
            raise ValueError("S must be positive definite")
        object.__setattr__(self, "A", a)
        object.__setattr__(self, "S", s)

    def element(self) -> SpMat:
        return make_symplectic(*_standard_blocks(self.A, self.S), self.tol)


def _standard_blocks(a: np.ndarray, s: np.ndarray) -> tuple[np.ndarray, ...]:
    """The blocks of the standard element [[A, 0], [A + A^{-T}S, A^{-T}]],
    for one matrix or a stack."""
    ait = np.linalg.inv(a.swapaxes(-1, -2))
    return a, np.zeros_like(a), a + ait @ s, ait


@dataclass(frozen=True, eq=False)
class FixedPointReport:
    """A fixed point with its Riccati residual max|AY + B - Y(CY + D)|, which
    decides a fixed point at sqrt(eq_tol) * max(1, |Y|)."""

    point: BoundaryPoint
    residual: float


@dataclass(frozen=True, eq=False)
class DifferentialMap:
    """The derivative v -> L v R of the boundary action at a fixed point.

    At any finite fixed point of a symplectic element, R equals L^T, so the
    eigenvalue moduli of the map on symmetric matrices are the pairwise
    products of the moduli of L's eigenvalues.
    """

    left: np.ndarray
    right: np.ndarray

    def __call__(self, v: np.ndarray) -> np.ndarray:
        return self.left @ v @ self.right

    def eigen_moduli(self) -> np.ndarray:
        lm = np.abs(np.linalg.eigvals(self.left))
        rm = np.abs(np.linalg.eigvals(self.right))
        return np.sort(np.multiply.outer(lm, rm).reshape(-1))


def _riccati(ms: np.ndarray, ys: np.ndarray, at_inf: np.ndarray) -> tuple[np.ndarray, ...]:
    """(residual, left, right) of each element of a (k, 2n, 2n) stack at its
    point: the Riccati residual max|AY + B - Y(CY + D)|, zero exactly where
    the element fixes Y, and the differential factors A - YC and CY + D.
    ys[i] is a _point_stack value, zero where at_inf[i]; a point at
    infinity is read as 0 after the chart swap X -> -X^{-1}."""
    n = ms.shape[-1] // 2
    if at_inf.any():
        sw = swap_symplectic(n)
        ms = np.where(at_inf[:, None, None], sw.m @ ms @ sp_inverse(sw).m, ms)
    a, b, c, d = ms[:, :n, :n], ms[:, :n, n:], ms[:, n:, :n], ms[:, n:, n:]
    right = c @ ys + d
    return np.max(np.abs(a @ ys + b - ys @ right), axis=(1, 2)), a - ys @ c, right


def _require_fixed(ms: np.ndarray, points, tol: Tolerance, names) -> tuple[np.ndarray, np.ndarray]:
    """The differential factors (A - YC, CY + D) of _riccati for each element
    of a (k, 2n, 2n) stack at its point.  A point is fixed when its Riccati
    residual is at most sqrt(eq_tol) * max(1, |Y|); otherwise the first
    element that does not fix its point raises NotFixed, named by names."""
    ys, at_inf, scale = _point_stack(points, ms.shape[-1] // 2)
    residual, left, right = _riccati(ms, ys, at_inf)
    faults = gate("fixed-point displacement", residual, np.sqrt(tol.eq_tol) * scale, NotFixed,
                  [f"{who} does not fix its claimed point (residual {{:.3e}})" for who in names])
    if fault := next((f for f in faults if f), None):
        raise fault
    return left, right


def fixed_point_expanding_side(sb: StandardBoundary,
                               tol: Tolerance = DEFAULT_TOL) -> FixedPointReport:
    """The unique fixed point transverse to 0 for contracting A.

    It is Y = -P^{-1}, with P the positive definite solution of the Stein
    equation A^T P A - P = -(A^T A + S); it is negative definite and the
    boundary action there is expanding.  Other spectra of A raise
    NotContracting, stage "length spectrum" with the spectral radius of A
    against 1 - unit_circle_band.
    """
    if not _unit_circle_masks(sb.A, tol.unit_circle_band)[0].all():
        raise NotContracting("expanding-side fixed point needs contracting A", "length spectrum",
                             float(np.abs(np.linalg.eigvals(sb.A)).max()), 1.0 - tol.unit_circle_band)
    y = sym_part(-np.linalg.inv(stein_solve(sb.A, -(sb.A.T @ sb.A + sb.S), tol)))
    residual = _riccati(sb.element().m[None], y[None], np.zeros(1, dtype=bool))[0]
    return FixedPointReport(BoundaryPoint(y), float(residual[0]))


def differential_at(g: SpMat, p: BoundaryPoint,
                    tol: Tolerance = DEFAULT_TOL) -> DifferentialMap:
    """Derivative of the boundary action of g at a fixed point p.

    The map is v -> (A - YC) v (CY + D)^{-1}, with the factors of _riccati,
    which reads infinity as 0 after the chart swap X -> -X^{-1} (eigenvalue
    data is chart independent).  p is fixed when its Riccati residual is at
    most sqrt(eq_tol) * max(1, |Y|); otherwise NotFixed is raised.
    """
    left, right = _require_fixed(g.m[None], (p,), tol, ("element",))
    return DifferentialMap(left=left[0], right=np.linalg.inv(right[0]))


# margins for certifying dynamics at a candidate fixed point; the raw
# eigenvalues of defective circle pairs carry O(sqrt(eps)) noise, so these
# sit well above machine precision
_ATTRACT_MARGIN = 1e-5
_NONEXPAND_SLACK = 1e-6
_NO_CANONICAL = "no certified non-expanding fixed point"


# smallest min/max ratio of |diag R| the eigenvector basis may have; the point
# errs by about 1e-16 / ratio (conjugated Jordan blocks [[2, 1e-9], [0, 2]] reach
# 1e-3, [[2, 1], [0, 2]] 3e-8 and err by 5e-9); sampled words stay above 0.16
_EIGENBASIS_RCOND = 1e-2


def _eigenvector_bases(w: np.ndarray, v: np.ndarray, tol: Tolerance) -> tuple:
    """(zs, direct) from np.linalg.eig's (w, v) of a (k, 2n, 2n) stack: zs[i]
    an orthonormal basis of the span of the n largest moduli, Re v + Im v
    (x + y and x - y for a pair x +- iy) under one stacked QR, and whether
    no modulus is within route_band of 1 and R is well conditioned."""
    n, c = w.shape[-1] // 2, tol.route_band
    cols, ranked = np.argsort(np.abs(w), axis=-1)[:, n:], np.sort(np.abs(w), axis=-1)
    v = v[np.arange(len(w))[:, None], :, cols]
    zs, r = np.linalg.qr((v.real + v.imag).swapaxes(1, 2))
    r = np.abs(np.diagonal(r, axis1=1, axis2=2))
    return zs, ((ranked[:, n - 1] < 1.0 - c) & (ranked[:, n] > 1.0 + c)
                & (r.min(axis=-1) > _EIGENBASIS_RCOND * r.max(axis=-1)))


def _circle_polynomial(t: np.ndarray, w: list, r: float) -> np.ndarray:
    """p(T) with one root for each cluster of the eigenvalues w of T, the
    members within r of its first: their mean, which the rounding that
    splits a Jordan pair leaves accurate; a real quadratic for a complex
    pair, and none for its lower half or for a cluster above 1 + r / 2, the
    expanding half of a pair split by more than r."""
    eye, p = np.eye(len(t)), None
    while w:
        near = [x for x in w if abs(x - w[0]) <= r]
        w = [x for x in w if abs(x - w[0]) > r]
        mu = sum(near) / len(near)
        if abs(mu) <= 1.0 + r / 2 and mu.imag >= -r / 2:
            f = t @ t - 2.0 * mu.real * t + abs(mu) ** 2 * eye if mu.imag > r / 2 else t - mu.real * eye
            p = f if p is None else p @ f
    return eye if p is None else p


def _schur_frame(m: np.ndarray, n: int, c: float) -> tuple:
    """(Z, fault) of the Schur rescue for one (2n, 2n) slice: Z (2n, n) spans
    its non-contracting invariant Lagrangian where fault is None.

    One real Schur form T leads with the moduli above 1 - c.  With none in
    [1 - c, 1 + c], Z is that block if n-dimensional.  Otherwise Z is the
    range of p(T11), _circle_polynomial of those in the band clustered within
    r = 8 sqrt(eps) |T|_F (8 times the split rounding gives a Jordan pair),
    if sigma_{n+1} <= c sigma_n: the expanding part and the eigenvector half
    of each Jordan pair on the circle (Lancaster-Rodman, Algebraic Riccati
    Equations, 1995).  Without that gap, band moduli more than c r from 1 on
    both sides are a diagonalisable pair, which a second Schur form cut at
    modulus 1 splits.  Elliptic blocks, longer Jordan chains and a T within
    c r of a scalar in the Frobenius norm (a word equal to the identity,
    whose p(T11) is rounding, takes no SVD) are refused at the gap.  A
    failed Schur form raises NotSHyperbolic."""
    t, z, dim, wr, wi = _real_schur(m, lambda re, im: re * re + im * im > (1.0 - c) ** 2, NotSHyperbolic)
    w = [complex(x, y) for x, y in zip(wr[:dim].tolist(), wi[:dim].tolist()) if math.hypot(x, y) <= 1.0 + c]
    gap = np.inf
    if w and np.linalg.norm(t - wr[0] * np.eye(2 * n)) > c * (r := 8.0 * 2.0 ** -26 * np.linalg.norm(t)):
        u, s, _ = np.linalg.svd(_circle_polynomial(t[:dim, :dim], w, r))
        gap = s[n] / s[n - 1] if dim > n and s[n - 1] > 0.0 else np.inf
        if gap <= c:
            return z[:, :dim] @ u[:, :n], None
        if min(map(abs, w)) < 1.0 - c * r and max(map(abs, w)) > 1.0 + c * r:
            _, z, dim, *_ = _real_schur(m, lambda re, im: re * re + im * im > 1.0, NotSHyperbolic)
            w = []
    if w:
        return z[:, :n], NotSHyperbolic(f"unit-circle block has no rank gap at {n} (ratio {gap:.3e})",
                                        "unit-circle rank gap", float(gap), c)
    return z[:, :n], None if dim == n else NotSHyperbolic(
        f"expanding subspace has dimension {dim}, expected {n}", "expanding subspace dimension", dim, n)


def _subspace_fixed_points(ms: np.ndarray, tol: Tolerance, zs: np.ndarray | None = None,
                           direct: np.ndarray | None = None) -> tuple:
    """Chart points of the expanding invariant subspaces of a (k, 2n, 2n)
    stack, certified: (points, at_inf, moved, band, rho, exact), points holding
    chart values, zero where at_inf, and NotSHyperbolic refusals.  moved is the
    _riccati residual at each point, fixed where moved <= band = sqrt(eq_tol) *
    max(1, |Y|); exact says moved <= 2n u max|g| (1 + |Y|)^2, a backward-stable
    eigen-solver's error; rho is the spectral radius of the factor A - YC.
    Circle eigenvalues of the full matrix come in defective pairs whose
    computed values split by roughly sqrt(eps); certifying the candidate
    point directly is robust where raw eigenvalue bands are not.

    zs holds an orthonormal basis (2n, n) of each subspace, which one
    np.linalg.eig of the stack makes when none is given (_eigenvector_bases).
    A slice not direct, or every slice when that eig fails, takes the Schur
    rescue instead (_schur_frame, c = route_band), and is refused where that
    refuses or its Schur form fails.  The point is u1 u2^{-1}, or infinity
    where u2 is singular within tolerance (matcore._singularity).  Callers
    set thresholds on rho; a NaN or Inf raises IllConditioned.
    """
    ms = check_finite(ms)
    n = ms.shape[-1] // 2
    if zs is None:
        try:
            zs, direct = _eigenvector_bases(*np.linalg.eig(ms), tol)
        except np.linalg.LinAlgError:
            zs, direct = np.empty((len(ms), 2 * n, n)), np.zeros(len(ms), dtype=bool)
    points, faults, c = Slices(len(ms)), [None] * len(ms), tol.route_band
    for i in np.flatnonzero(~direct):
        # the refusals are made, not raised, so that they hold no frame of this call
        try:
            zs[i], faults[i] = _schur_frame(ms[i], n, c)
        except NotSHyperbolic as exc:
            faults[i] = exc
    ms, zs = points.refuse(faults, ms, zs)
    u1, u2 = zs[:, :n], zs[:, n:]
    at_inf = _singularity(u2, tol)[0]
    ys = sym_part(u1 @ np.linalg.inv(np.where(at_inf[:, None, None], np.eye(n), u2)))
    ys[at_inf] = 0.0
    inf = np.zeros(len(points.refusals), dtype=bool)
    inf[points.finish(ys).live] = at_inf
    moved, left, _ = _riccati(ms, ys, at_inf)
    size = np.max(np.abs(ys), axis=(1, 2))
    # the chart swap only moves and negates entries, so max|g| reads the same in either chart
    return (points, inf, moved, np.sqrt(tol.eq_tol) * np.maximum(1.0, size),
            np.max(np.abs(np.linalg.eigvals(left)), axis=-1),
            moved <= 2 * n * 2.0 ** -53 * np.max(np.abs(ms), axis=(1, 2)) * (1.0 + size) ** 2)


def _attracting(points: Slices, moved: np.ndarray, band: np.ndarray, rho: np.ndarray, tol: Tolerance,
                trusted=True) -> Slices:
    """points with each live slice refused that is not fixed ("fixed-point displacement": moved
    above band, or not trusted) or not contracting ("differential spectral radius": rho above limit)."""
    limit, fixed = 1.0 - max(tol.unit_circle_band, _ATTRACT_MARGIN), (moved <= band) & trusted
    points.refuse([NotSHyperbolic(
        "no contracting fixed point; element is not transverse-pair hyperbolic within tolerance",
        *(("differential spectral radius", float(rho[j]), limit) if fixed[j]
          else ("fixed-point displacement", float(moved[j]), float(band[j])))) if weak else None
        for j, weak in enumerate((~fixed | (rho > limit)).tolist())])
    return points


def attracting_point(g: SpMat, tol: Tolerance = DEFAULT_TOL) -> BoundaryPoint:
    """Attracting fixed point of an arbitrary transverse-pair element.

    The expanding invariant subspace of the full (2n, 2n) matrix is a
    Lagrangian graph over the vertical factor; its chart representative is
    the attracting point.  The result is certified by a contracting
    differential, which guards against defective circle spectra whose
    eigenvalues split across the band.
    """
    found, at_inf, moved, band, rho, _ = _subspace_fixed_points(g.m[None], tol)
    return _stack_points([_attracting(found, moved, band, rho, tol)[0]], at_inf)[0]


def _canonical_points(ms: np.ndarray, tol: Tolerance) -> tuple[Slices, np.ndarray]:
    """canonical_point_of_element of each slice of a (k, 2n, 2n) stack, as
    _subspace_fixed_points gives points: (points, at_inf), the values chart
    values, zero where at_inf.  A slice with a NaN or Inf is refused before
    the one _subspace_fixed_points call."""
    out = Slices(len(ms))
    found, at_inf, moved, band, rho, _ = _subspace_fixed_points(out.screen(ms), tol)
    # the first certificate that fails: the point is fixed, then the action there does not expand
    rho = found.refuse(gate("fixed-point displacement", moved, band, NotFixed, "point moves by {:.3e}"), rho)
    found.refuse(gate("differential spectral radius", rho, 1.0 + max(tol.unit_circle_band, _NONEXPAND_SLACK),
                      NotSHyperbolic, "action expands by {:.3e}"))
    # every refusal reads as NoCanonicalFixedPoint, with its own fields
    ys, at_inf = out.refuse([r and NoCanonicalFixedPoint(f"{_NO_CANONICAL}: {r}", r.stage, r.measured, r.bound)
                             for r in found.refusals], found.values, at_inf)
    inf = np.zeros(len(out.refusals), dtype=bool)
    inf[out.finish(ys).live] = at_inf
    return out, inf


def canonical_point_of_element(g: SpMat, tol: Tolerance = DEFAULT_TOL) -> BoundaryPoint:
    """Canonical (non-expanding) fixed point of a symplectic element.

    It is the invariant Lagrangian on which g acts with eigenvalue moduli at
    least 1: the expanding subspace, with the eigenvector half of each Jordan
    pair on the unit circle, which one route finds for every element
    (_subspace_fixed_points).  The point is certified by its Riccati residual
    and by a non-expanding differential; an element without such a point,
    elliptic or fixed-point free, refuses with NoCanonicalFixedPoint, which
    carries the stage, measured value and bound of the check that failed.
    """
    points, at_inf = _canonical_points(g.m[None], tol)
    return _stack_points([points[0]], at_inf)[0]
