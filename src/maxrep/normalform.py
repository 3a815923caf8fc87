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

import enum
from dataclasses import dataclass

import numpy as np

from .errors import (
    DefectiveSplit,
    NoCanonicalFixedPoint,
    NotContracting,
    NotFixed,
    NotSHyperbolic,
)
from .matcore import (
    DEFAULT_TOL,
    CircleClass,
    Tolerance,
    _real_schur,
    _unit_circle_masks,
    as_matrix,
    check_finite,
    circle_class,
    norm_inf,
    rel_bound,
    require_invertible,
    require_symmetric,
    stein_solve,
    sym_part,
)
from .symplectic import (
    INFINITY,
    BoundaryPoint,
    SpMat,
    cycle_symplectic,
    make_symplectic,
    moebius_act,
    point_distance,
    sp_inverse,
    swap_symplectic,
    transverse,
)

__all__ = [
    "DifferentialClass",
    "IsometryClass",
    "StandardBoundary",
    "FixedPointReport",
    "DifferentialMap",
    "IsometryReport",
    "standard_element",
    "fixed_point_residual",
    "fixed_point_expanding_side",
    "fixed_point_contracting_side",
    "differential_at",
    "canonical_fixed_point",
    "classify_isometry",
    "attracting_point",
    "canonical_point_of_element",
]


class DifferentialClass(enum.Enum):
    CONTRACTING = "contracting"
    EXPANDING = "expanding"
    NON_EXPANDING = "non_expanding"
    NON_CONTRACTING = "non_contracting"
    INDETERMINATE = "indeterminate"


class IsometryClass(enum.Enum):
    S_HYPERBOLIC = "s_hyperbolic"
    S_PARABOLIC = "s_parabolic"
    MIXED_NON_EXPANDING_FP = "mixed_non_expanding_fp"


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

    @property
    def n(self) -> int:
        return self.A.shape[0]

    def element(self) -> SpMat:
        return standard_element(self.A, self.S, self.tol)


def standard_element(a, s, tol: Tolerance = DEFAULT_TOL) -> SpMat:
    """The lower-triangular standard form [[A, 0], [A + A^{-T}S, A^{-T}]],
    the boundary normal form at 0 (re-exported as gluing.standard_lower)."""
    a, s = as_matrix(a), as_matrix(s)
    n = a.shape[0]
    ait = np.linalg.inv(a.T)
    return make_symplectic(a, np.zeros((n, n)), a + ait @ s, ait, tol)


@dataclass(frozen=True, eq=False)
class FixedPointReport:
    point: BoundaryPoint
    differential_class: DifferentialClass
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

    def classify(self, tol: Tolerance = DEFAULT_TOL) -> DifferentialClass:
        mods = self.eigen_moduli()
        band = tol.unit_circle_band
        if mods[-1] < 1.0 - band:
            return DifferentialClass.CONTRACTING
        if mods[0] > 1.0 + band:
            return DifferentialClass.EXPANDING
        if mods[-1] <= 1.0 + band:
            return DifferentialClass.NON_EXPANDING
        if mods[0] >= 1.0 - band:
            return DifferentialClass.NON_CONTRACTING
        return DifferentialClass.INDETERMINATE


def fixed_point_residual(g: SpMat, p: BoundaryPoint) -> float:
    """Distance between p and its image under g (entrywise, inf-aware)."""
    return point_distance(moebius_act(g, p), p)


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


def _require_fixed(g: SpMat, p: BoundaryPoint, tol: Tolerance, who: str):
    """Raise NotFixed unless g moves p by at most sqrt(eq_tol) * max(1, |p|)."""
    d = point_distance(moebius_act(g, p, tol), p)
    bound = rel_bound(np.sqrt(tol.eq_tol), 0.0 if p.is_infinity else p.value)
    if not d <= bound:
        raise NotFixed(f"{who} does not fix its claimed point (moved by {d:.3e})")


def _side_fixed_point(sb: StandardBoundary, tol: Tolerance,
                      expanding_side: bool) -> FixedPointReport:
    """The fixed point transverse to 0 of _stein_fixed_point, for A entirely
    inside (expanding side) or entirely outside (contracting side) the unit
    circle; other spectra raise NotContracting."""
    side, need = (("expanding", CircleClass.CONTRACTING) if expanding_side
                  else ("contracting", CircleClass.EXPANDING))
    if circle_class(sb.A, tol) is not need:
        raise NotContracting(f"{side}-side fixed point needs {need.value} A")
    pt = BoundaryPoint(_stein_fixed_point(sb.A, sb.S, tol, expanding_side))
    cls = DifferentialClass.EXPANDING if expanding_side else DifferentialClass.CONTRACTING
    return FixedPointReport(pt, cls, fixed_point_residual(sb.element(), pt))


def fixed_point_expanding_side(sb: StandardBoundary,
                               tol: Tolerance = DEFAULT_TOL) -> FixedPointReport:
    """The unique fixed point transverse to 0 for contracting A.

    It is negative definite and the boundary action there is expanding.
    """
    return _side_fixed_point(sb, tol, expanding_side=True)


def fixed_point_contracting_side(sb: StandardBoundary,
                                 tol: Tolerance = DEFAULT_TOL) -> FixedPointReport:
    """The unique fixed point transverse to 0 for expanding A (contracting action)."""
    return _side_fixed_point(sb, tol, expanding_side=False)


def differential_at(g: SpMat, p: BoundaryPoint,
                    tol: Tolerance = DEFAULT_TOL) -> DifferentialMap:
    """Derivative of the boundary action of g at a fixed point p.

    For finite p the map is v -> (A - YC) v (CY + D)^{-1}.  The point at
    infinity is handled by conjugating with the chart swap X -> -X^{-1}
    first; the returned map then lives in that chart (eigenvalue data is
    chart independent).
    """
    _require_fixed(g, p, tol, "element")
    if p.is_infinity:
        sw = swap_symplectic(g.n)
        g2 = sw @ g @ sp_inverse(sw)
        # infinity becomes 0 in the swapped chart
        return DifferentialMap(left=g2.A, right=np.linalg.inv(g2.D))
    y = p.value
    left = g.A - y @ g.C
    right = np.linalg.inv(g.C @ y + g.D)
    return DifferentialMap(left=left, right=right)


def _ordered_split(a: np.ndarray, s: np.ndarray, tol: Tolerance,
                   select_expanding: bool) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """Orthogonal Q, block-triangular T = Q^T A Q with the selected spectral
    cluster leading, plus the matching block of Q^T S Q.

    The selected cluster is the expanding (or contracting) part of the
    spectrum.  Eigenvalues in the gray zone around the threshold make the
    split untrustworthy and raise DefectiveSplit.
    """
    band = tol.unit_circle_band
    moduli = np.abs(np.linalg.eigvals(a))
    gray_lo, gray_hi = 1.0 - 2 * band, 1.0 + 2 * band
    inner_lo, inner_hi = 1.0 - band / 2, 1.0 + band / 2
    # an eigenvalue near the threshold but not inside the declared band
    # could land on either side of the cut
    ambiguous = (((moduli > inner_hi) & (moduli < gray_hi))
                 | ((moduli > gray_lo) & (moduli < inner_lo)))
    if np.any(ambiguous):
        raise DefectiveSplit(
            "eigenvalue moduli straddle the unit-circle band; refusing to split")
    if select_expanding:
        pred = lambda re, im: re * re + im * im > (1.0 + band) ** 2
    else:
        pred = lambda re, im: re * re + im * im < (1.0 - band) ** 2
    t, q, k = _real_schur(a, pred)
    sq = q.T @ s @ q
    return t, q, sq, int(k)


def _split_fixed_point(sb: StandardBoundary, tol: Tolerance,
                       attracting: bool) -> FixedPointReport:
    """The fixed point where the action is non-expanding (attracting) or
    non-contracting (repelling).

    With no eigenvalue of A strictly outside (attracting) or strictly inside
    (repelling) the unit-circle band, the point is 0.  Otherwise that
    spectral block contributes an invertible fixed point, which embeds into
    the leading corner of an orthogonal Schur basis.
    """
    n = sb.n
    inside, _, outside = _unit_circle_masks(sb.A, tol.unit_circle_band)
    selected, rest = (outside, inside) if attracting else (inside, outside)
    strict, loose = ((DifferentialClass.CONTRACTING, DifferentialClass.NON_EXPANDING)
                     if attracting else
                     (DifferentialClass.EXPANDING, DifferentialClass.NON_CONTRACTING))
    y = np.zeros((n, n))
    if not np.any(selected):
        pt = BoundaryPoint(y)
        cls = strict if np.all(rest) else loose
        return FixedPointReport(pt, cls, fixed_point_residual(sb.element(), pt))
    t, q, sq, k = _ordered_split(sb.A, sb.S, tol, select_expanding=attracting)
    if k != np.count_nonzero(selected):   # a defective pair on the circle
        raise DefectiveSplit(f"Schur reordering selected {k} of {np.count_nonzero(selected)} eigenvalues")
    y[:k, :k] = _stein_fixed_point(t[:k, :k], sym_part(sq[:k, :k]), tol,
                                   expanding_side=not attracting)
    pt = BoundaryPoint(sym_part(q @ y @ q.T))
    return FixedPointReport(pt, loose, fixed_point_residual(sb.element(), pt))


def canonical_fixed_point(sb: StandardBoundary,
                          tol: Tolerance = DEFAULT_TOL) -> FixedPointReport:
    """The unique fixed point where the action is non-expanding.

    If no eigenvalue of A lies outside the closed unit disc the point is 0.
    Otherwise the expanding spectral block contributes an invertible
    contracting-action fixed point which embeds into the leading corner of
    an orthogonal Schur basis.
    """
    return _split_fixed_point(sb, tol, attracting=True)


def classify_isometry(sb: StandardBoundary,
                      tol: Tolerance = DEFAULT_TOL) -> "IsometryReport":
    """Dynamical type of a standard boundary element.

    No unit-modulus spectrum gives a transverse attracting/repelling pair;
    spectrum entirely on the circle gives a single fixed point at 0; the
    mixed case only guarantees a non-expanding canonical point.
    """
    _, on_circle, _ = _unit_circle_masks(sb.A, tol.unit_circle_band)
    if np.all(on_circle):
        pt = BoundaryPoint(np.zeros((sb.n, sb.n)))
        rep = FixedPointReport(pt, DifferentialClass.NON_EXPANDING,
                               fixed_point_residual(sb.element(), pt))
        return IsometryReport(IsometryClass.S_PARABOLIC, rep, None)
    if not np.any(on_circle):
        att = canonical_fixed_point(sb, tol)
        rep = _split_fixed_point(sb, tol, attracting=False)
        if not transverse(att.point, rep.point, tol):
            raise NotSHyperbolic("attracting and repelling points are not transverse")
        return IsometryReport(IsometryClass.S_HYPERBOLIC, att, rep)
    att = canonical_fixed_point(sb, tol)
    return IsometryReport(IsometryClass.MIXED_NON_EXPANDING_FP, att, None)


@dataclass(frozen=True, eq=False)
class IsometryReport:
    kind: IsometryClass
    attracting: FixedPointReport
    repelling: FixedPointReport | None


# margins for certifying dynamics at a candidate fixed point; the raw
# eigenvalues of defective circle pairs carry O(sqrt(eps)) noise, so these
# sit well above machine precision
_ATTRACT_MARGIN = 1e-5
_NONEXPAND_SLACK = 1e-6


def _certificates(ms: np.ndarray, ys: np.ndarray, at_inf: np.ndarray,
                  tol: Tolerance) -> tuple[np.ndarray, np.ndarray]:
    """(is the point fixed, spectral radius of the differential factor) of
    each element of a (k, 2n, 2n) stack at ys[i], or at infinity (0 after
    the chart swap) where at_inf[i].  The point counts as fixed when it
    moves by at most sqrt(tol.eq_tol) * max(1, |Y|).  Circle eigenvalues of
    the full matrix come in defective pairs whose computed values split by
    roughly sqrt(eps); certifying the candidate point directly is robust
    where raw eigenvalue bands are not.
    """
    n = ms.shape[-1] // 2
    if at_inf.any():
        sw = swap_symplectic(n)
        ms = np.where(at_inf[:, None, None], sw.m @ ms @ sp_inverse(sw).m, ms)
    y = np.where(at_inf[:, None, None], 0.0, ys)
    a, b, c, d = ms[:, :n, :n], ms[:, :n, n:], ms[:, n:, :n], ms[:, n:, n:]
    img = a @ y + b - y @ (c @ y + d)
    scale = np.maximum(1.0, np.max(np.abs(y), axis=(1, 2)))
    fixed = np.max(np.abs(img), axis=(1, 2)) <= np.sqrt(tol.eq_tol) * scale
    return fixed, np.max(np.abs(np.linalg.eigvals(a - y @ c)), axis=-1)


def _subspace_fixed_points(ms: np.ndarray, tol: Tolerance) -> tuple[list, np.ndarray, np.ndarray]:
    """Chart points of the expanding invariant subspaces of a (k, 2n, 2n)
    stack, certified: (points, fixed, rho), points[i] being a BoundaryPoint
    or the NotSHyperbolic refusing slice i.

    A subspace, spanned by the eigenvalues of modulus above 1, must have
    dimension n; its chart point is u1 u2^{-1}, or infinity when u2 is
    singular within eq_tol.  fixed and rho come from _certificates; each
    caller sets its own acceptance threshold on the spectral radius.
    """
    ms = check_finite(ms)
    k, n = len(ms), ms.shape[-1] // 2
    # Fortran-ordered slices, as dgees returns them, so that the products
    # below round as they do on one matrix
    zs = np.empty((k, 2 * n, 2 * n)).swapaxes(1, 2)
    refusals: list = [None] * k
    expanding = lambda re, im: re * re + im * im > 1.0
    for i, m in enumerate(ms):
        try:
            _, zs[i], dim = _real_schur(m, expanding, NotSHyperbolic)
            if dim != n:
                raise NotSHyperbolic(f"expanding subspace has dimension {dim}, expected {n}")
        except NotSHyperbolic as exc:
            # reordering can move an eigenvalue of modulus near 1 across the cut
            refusals[i], zs[i] = exc, np.eye(2 * n)
    u1, u2 = zs[:, :n, :n], zs[:, n:, :n]
    s = np.linalg.svd(u2, compute_uv=False)
    at_inf = s[:, -1] <= tol.eq_tol * np.maximum(1.0, s[:, 0])
    ys = sym_part(u1 @ np.linalg.inv(np.where(at_inf[:, None, None], np.eye(n), u2)))
    fixed, rho = _certificates(ms, ys, at_inf, tol)
    points = [why or (INFINITY if inf else BoundaryPoint(y))
              for why, inf, y in zip(refusals, at_inf, ys)]
    return points, fixed, rho


def _attracting_points(ms: np.ndarray, tol: Tolerance) -> list:
    """attracting_point of each slice: a BoundaryPoint or a NotSHyperbolic."""
    points, fixed, rho = _subspace_fixed_points(ms, tol)
    weak = ~fixed | (rho > 1.0 - max(tol.unit_circle_band, _ATTRACT_MARGIN))
    return [pt if isinstance(pt, NotSHyperbolic) or not bad else
            NotSHyperbolic("no contracting fixed point; element is not "
                           "transverse-pair hyperbolic within tolerance")
            for pt, bad in zip(points, weak)]


def attracting_point(g: SpMat, tol: Tolerance = DEFAULT_TOL) -> BoundaryPoint:
    """Attracting fixed point of an arbitrary transverse-pair element.

    The expanding invariant subspace of the full (2n, 2n) matrix is a
    Lagrangian graph over the vertical factor; its chart representative is
    the attracting point.  The result is certified by a contracting
    differential, which guards against defective circle spectra whose
    eigenvalues split across the band.
    """
    pt, = _attracting_points(g.m[None], tol)
    if isinstance(pt, NotSHyperbolic):
        raise pt
    return pt


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
    n = g.n
    r = cycle_symplectic(n)
    charts = [SpMat(np.eye(2 * n)), sp_inverse(r), r]
    for u in charts:
        l = sp_inverse(u) @ g @ u
        if norm_inf(l.B) > rel_bound(tol.eq_tol, l.m):
            continue
        a = l.A
        s_part = sym_part(a.T @ l.C - a.T @ a)
        try:
            eigs = np.linalg.eigvalsh(s_part)
        except np.linalg.LinAlgError:
            continue
        if np.min(eigs) <= rel_bound(tol.eq_tol, s_part):
            continue
        sb = StandardBoundary(a, s_part, tol)
        rep = canonical_fixed_point(sb, tol)
        return moebius_act(u, rep.point, tol)
    # invariant-subspace route, accepting any non-expanding fixed point
    (pt,), (fixed,), (rho,) = _subspace_fixed_points(g.m[None], tol)
    if (not isinstance(pt, NotSHyperbolic) and fixed
            and rho <= 1.0 + max(tol.unit_circle_band, _NONEXPAND_SLACK)):
        return pt
    raise NoCanonicalFixedPoint(
        "no recognizable standard position and no certified "
        "non-expanding fixed point")
