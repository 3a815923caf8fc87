"""Canonical fixed points and dynamical classification of boundary isometries.

The standard boundary element with data (A, S), A invertible and S symmetric
positive definite, is the block-lower-triangular symplectic matrix

    c = [[A, 0], [A + A^{-T} S, A^{-T}]].

Its fixed points in the matrix chart solve Y C Y + Y A^{-T} - A Y = 0 with
C = A + A^{-T} S.  The canonical fixed point is the unique one at which the
differential is non-expanding; it is 0 when no eigenvalue of A lies outside
the unit circle, and otherwise assembles from the expanding spectral block
through a discrete Stein equation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DefectiveSplit,
    MaxRepError,
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
    _singular,
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
    _rotations,
    _stack_points,
    make_symplectic,
    moebius_act,
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


def _stein_fixed_point(a: np.ndarray, s: np.ndarray, tol: Tolerance,
                       expanding_side: bool) -> np.ndarray:
    """Invertible fixed point of the standard element, via A^T P A - P = +-(A^T A + S).

    With A contracting the solution P of A^T P A - P = -(A^T A + S) is
    positive definite and Y = -P^{-1} is the fixed point transverse to 0
    (the action there is expanding).  With A expanding the sign flips and
    Y = P^{-1} is positive definite with contracting action.
    """
    sbar = a.T @ a + s
    q = -sbar if expanding_side else sbar
    p = stein_solve(a, q, tol)
    sign = -1.0 if expanding_side else 1.0
    return sym_part(sign * np.linalg.inv(p))


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

    It is negative definite and the boundary action there is expanding;
    other spectra of A raise NotContracting, stage "length spectrum" with
    the spectral radius of A against 1 - unit_circle_band.
    """
    if not _unit_circle_masks(sb.A, tol.unit_circle_band)[0].all():
        raise NotContracting("expanding-side fixed point needs contracting A", "length spectrum",
                             float(np.abs(np.linalg.eigvals(sb.A)).max()), 1.0 - tol.unit_circle_band)
    y = _stein_fixed_point(sb.A, sb.S, tol, expanding_side=True)
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


def _canonical_fixed_point(a: np.ndarray, s: np.ndarray, tol: Tolerance) -> np.ndarray:
    """The chart value of the canonical fixed point, where the action is
    non-expanding, of the standard element with data (A, S), S positive
    definite; a singular A raises StandardBoundary's Singular.

    With no eigenvalue of A strictly outside the unit-circle band, the point
    is 0.  Otherwise the expanding spectral block, led by an orthogonal
    Schur basis Q with T = Q^T A Q, contributes an invertible fixed point in
    the leading corner.  A modulus in the gray zone around the band (its
    distance from 1 against 2 band), or a reordering that selects another
    count, make that split untrustworthy and raise DefectiveSplit.
    """
    if fault := _singular(np.linalg.svd(a, compute_uv=False), tol, "length block A"):
        raise fault
    n, band = a.shape[0], tol.unit_circle_band
    moduli = np.abs(np.linalg.eigvals(a))
    outside = moduli > 1.0 + band
    y = np.zeros((n, n))
    if not np.any(outside):
        return y
    # an eigenvalue near the threshold but not inside the declared band
    # could land on either side of the cut
    straddle = (((moduli > 1.0 + band / 2) & (moduli < 1.0 + 2 * band))
                | ((moduli > 1.0 - 2 * band) & (moduli < 1.0 - band / 2)))
    if np.any(straddle):
        raise DefectiveSplit("eigenvalue moduli straddle the unit-circle band; refusing to split",
                             "unit-circle split", float(np.abs(moduli[straddle] - 1.0).min()), 2 * band)
    t, q, k = _real_schur(a, lambda re, im: re * re + im * im > (1.0 + band) ** 2)
    if k != (count := np.count_nonzero(outside)):   # a defective pair on the circle
        raise DefectiveSplit(f"Schur reordering selected {k} of {count} eigenvalues",
                             "Schur reordering", int(k), int(count))
    sq = q.T @ s @ q
    y[:k, :k] = _stein_fixed_point(t[:k, :k], sym_part(sq[:k, :k]), tol, expanding_side=False)
    return sym_part(q @ y @ q.T)


# margins for certifying dynamics at a candidate fixed point; the raw
# eigenvalues of defective circle pairs carry O(sqrt(eps)) noise, so these
# sit well above machine precision
_ATTRACT_MARGIN = 1e-5
_NONEXPAND_SLACK = 1e-6
_NO_CANONICAL = "no recognizable standard position and no certified non-expanding fixed point"


# smallest min/max ratio of |diag R| the eigenvector basis may have; the point
# errs by about 1e-16 / ratio (conjugated Jordan blocks [[2, 1e-9], [0, 2]] reach
# 1e-3, [[2, 1], [0, 2]] 3e-8 and err by 5e-9); sampled words stay above 0.16
_EIGENBASIS_RCOND = 1e-2


def _eigenvector_bases(w: np.ndarray, v: np.ndarray, tol: Tolerance) -> tuple:
    """(zs, direct) from np.linalg.eig's (w, v) of a (k, 2n, 2n) stack: zs[i]
    an orthonormal basis of the span of the n largest moduli, Re v + Im v
    (x + y and x - y for a pair x +- iy) under one stacked QR, and whether
    no modulus is in the unit-circle band and R is well conditioned."""
    n = w.shape[-1] // 2
    cols, ranked = np.argsort(np.abs(w), axis=-1)[:, n:], np.sort(np.abs(w), axis=-1)
    v = v[np.arange(len(w))[:, None], :, cols]
    zs, r = np.linalg.qr((v.real + v.imag).swapaxes(1, 2))
    r = np.abs(np.diagonal(r, axis1=1, axis2=2))
    return zs, ((ranked[:, n - 1] < 1.0 - tol.unit_circle_band) & (ranked[:, n] > 1.0 + tol.unit_circle_band)
                & (r.min(axis=-1) > _EIGENBASIS_RCOND * r.max(axis=-1)))


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
    A slice not direct, or every slice when that eig fails, takes its sorted
    real Schur basis instead, and is refused where that fails or the subspace
    is not n-dimensional.  The point is u1 u2^{-1}, or infinity where
    sigma_min(u2) <= eq_tol * max(1, sigma_max), read only if |det u2| <= 2
    eq_tol (an orthonormal frame has sigma_min >= |det u2| / (1 + O(u))^(n-1)).
    Callers set thresholds on rho; a NaN or Inf raises IllConditioned.
    """
    ms = check_finite(ms)
    n = ms.shape[-1] // 2
    if zs is None:
        try:
            zs, direct = _eigenvector_bases(*np.linalg.eig(ms), tol)
        except np.linalg.LinAlgError:
            zs, direct = np.empty((len(ms), 2 * n, n)), np.zeros(len(ms), dtype=bool)
    points, faults = Slices(len(ms)), [None] * len(ms)
    for i in np.flatnonzero(~direct):
        try:
            _, z, dim = _real_schur(ms[i], lambda re, im: re * re + im * im > 1.0, NotSHyperbolic)
        except NotSHyperbolic as exc:
            faults[i] = exc
            continue
        # reordering can move an eigenvalue of modulus near 1 across the cut;
        # the refusal is made, not raised, so that it holds no frame of this call
        zs[i] = z[:, :n]
        if dim != n:
            faults[i] = NotSHyperbolic(f"expanding subspace has dimension {dim}, expected {n}",
                                       "expanding subspace dimension", dim, n)
    ms, zs = points.refuse(faults, ms, zs)
    u1, u2 = zs[:, :n], zs[:, n:]
    at_inf = np.abs(np.linalg.det(u2)) <= 2 * tol.eq_tol   # the determinant screen
    if at_inf.any():
        s = np.linalg.svd(u2[at_inf], compute_uv=False)
        at_inf[at_inf] = s[:, -1] <= tol.eq_tol * np.maximum(1.0, s[:, 0])
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


def _attracting(points: Slices, fixed: np.ndarray, rho: np.ndarray, tol: Tolerance) -> Slices:
    """points with each live slice refused that fixed and rho do not certify attracting."""
    points.refuse([NotSHyperbolic("no contracting fixed point; element is not "
                                  "transverse-pair hyperbolic within tolerance") if weak else None
                   for weak in ~fixed | (rho > 1.0 - max(tol.unit_circle_band, _ATTRACT_MARGIN))])
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
    return _stack_points([_attracting(found, moved <= band, rho, tol)[0]], at_inf)[0]


def _canonical_points(ms: np.ndarray, tol: Tolerance) -> tuple[Slices, np.ndarray]:
    """canonical_point_of_element of each slice of a (k, 2n, 2n) stack, as
    _subspace_fixed_points gives points: (points, at_inf), the values chart
    values, zero where at_inf.  A slice with a NaN or Inf is refused before
    any product; the slices without a standard chart, if any, share one
    _subspace_fixed_points call."""
    n = ms.shape[-1] // 2
    out = Slices(len(ms))
    ms = out.screen(ms)
    rots = _rotations(n)
    ls = rots[:3] @ ms[:, None] @ rots[3:]     # in the chart of u = rots[3 + j]
    # a chart holds a standard form where the B block vanishes
    lower = ~(np.abs(ls[..., :n, n:]).max(axis=(-2, -1))
              > tol.eq_tol * np.maximum(1.0, np.abs(ls).max(axis=(-2, -1))))
    ys, at_inf = np.zeros((len(ms), n, n)), np.zeros(len(ms), dtype=bool)
    charted, faults = np.zeros(len(ms), dtype=bool), [None] * len(ms)
    for i in np.flatnonzero(lower.any(axis=1)):
        try:
            for j in np.flatnonzero(lower[i]):
                a, c = ls[i, j, :n, :n], ls[i, j, n:, :n]
                s_part = sym_part(a.T @ c - a.T @ a)
                try:
                    eigs = np.linalg.eigvalsh(s_part)
                except np.linalg.LinAlgError:
                    continue
                if np.min(eigs) > rel_bound(tol.eq_tol, s_part):
                    y = BoundaryPoint(_canonical_fixed_point(a, s_part, tol))
                    pt = moebius_act(SpMat(rots[3 + j]), y, tol)
                    charted[i], at_inf[i] = True, pt.is_infinity
                    ys[i] = 0.0 if pt.is_infinity else pt.value
                    break
        except MaxRepError as exc:
            faults[i] = exc
    ms, ys, at_inf, charted = out.refuse(faults, ms, ys, at_inf, charted)
    if not charted.all():
        rest = ~charted
        found, at_inf[rest], moved, band, rho, _ = _subspace_fixed_points(ms[rest], tol)
        # the first certificate that fails: the point is fixed, then the action there does not expand
        rho = found.refuse(gate("fixed-point displacement", moved, band, NotFixed, "point moves by {:.3e}"), rho)
        found.refuse(gate("differential spectral radius", rho, 1.0 + max(tol.unit_circle_band, _NONEXPAND_SLACK),
                          NotSHyperbolic, "action expands by {:.3e}"))
        # every refusal of the subspace route reads as NoCanonicalFixedPoint, with its own fields
        ys[rest], faults = found.values, np.full(len(ms), None)
        faults[rest] = [r and NoCanonicalFixedPoint(f"{_NO_CANONICAL}: {r}", r.stage, r.measured, r.bound)
                        for r in found.refusals]
        ys, at_inf = out.refuse(faults, ys, at_inf)
    inf = np.zeros(len(out.refusals), dtype=bool)
    inf[out.finish(ys).live] = at_inf
    return out, inf


def canonical_point_of_element(g: SpMat, tol: Tolerance = DEFAULT_TOL) -> BoundaryPoint:
    """Canonical (non-expanding) fixed point of a symplectic element.

    Elements exposing a standard form in one of the three chart positions
    reachable by powers of the standard triple rotation use the exact
    closed forms (this covers unit-modulus spectra).  Anything else goes
    through the certified invariant-subspace route, which requires a
    transverse-pair element; the remaining cases refuse with
    NoCanonicalFixedPoint, because identifying a reliable splitting from
    raw matrix data is not possible in general.
    """
    points, at_inf = _canonical_points(g.m[None], tol)
    return _stack_points([points[0]], at_inf)[0]
