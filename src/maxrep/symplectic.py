"""The real symplectic group in 2x2 block form and its boundary action.

Elements are stored as full (2n, 2n) arrays; the four n x n blocks A, B, C, D
satisfy A^T D - C^T B = I, A^T C = C^T A, D^T B = B^T D.  The group acts by
generalized Moebius transformations X -> (AX + B)(CX + D)^{-1} on the model
Sym_n(R) together with one extra point at infinity, whose stabilizer is the
block-lower-triangular subgroup image under X -> A C^{-1}.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import IllConditioned, NotSymplectic
from .matcore import (
    DEFAULT_TOL,
    Tolerance,
    as_matrix,
    check_finite,
    norm_inf,
    rel_bound,
    require_symmetric,
    sym_part,
)

__all__ = [
    "SpMat",
    "BoundaryPoint",
    "INFINITY",
    "finite_point",
    "zero_point",
    "identity_point",
    "symplectic_residual",
    "make_symplectic",
    "sp_identity",
    "sp_inverse",
    "diag_symplectic",
    "translation_symplectic",
    "shear_symplectic",
    "swap_symplectic",
    "cycle_symplectic",
    "moebius_act",
    "transverse",
    "transversality_margin",
    "point_distance",
]

# width multiplier for the ambiguous zone above the infinity band in the
# Moebius action; inside it we refuse rather than pick a branch
_ILL_BAND_FACTOR = 100.0


@dataclass(frozen=True, eq=False)
class SpMat:
    """A symplectic matrix, stored as the full (2n, 2n) array."""

    m: np.ndarray

    @property
    def n(self) -> int:
        return self.m.shape[0] // 2

    @property
    def A(self) -> np.ndarray:
        return self.m[: self.n, : self.n]

    @property
    def B(self) -> np.ndarray:
        return self.m[: self.n, self.n:]

    @property
    def C(self) -> np.ndarray:
        return self.m[self.n:, : self.n]

    @property
    def D(self) -> np.ndarray:
        return self.m[self.n:, self.n:]

    def __matmul__(self, other: "SpMat") -> "SpMat":
        return SpMat(self.m @ other.m)

    def inv(self) -> "SpMat":
        return sp_inverse(self)

    def __repr__(self):
        return f"SpMat(n={self.n})"


@dataclass(frozen=True, eq=False)
class BoundaryPoint:
    """A point of the boundary model: a symmetric matrix or infinity."""

    value: np.ndarray | None = field(default=None)

    @property
    def is_infinity(self) -> bool:
        return self.value is None

    def __repr__(self):
        return "BoundaryPoint(inf)" if self.is_infinity else f"BoundaryPoint({self.value!r})"


INFINITY = BoundaryPoint(None)


def finite_point(x, tol: Tolerance = DEFAULT_TOL) -> BoundaryPoint:
    """Wrap a symmetric matrix as a finite boundary point (symmetrised)."""
    return BoundaryPoint(require_symmetric(x, tol, "boundary point"))


def zero_point(n: int) -> BoundaryPoint:
    return BoundaryPoint(np.zeros((n, n)))


def identity_point(n: int) -> BoundaryPoint:
    return BoundaryPoint(np.eye(n))


def symplectic_residual(m: np.ndarray) -> tuple[float, str]:
    """Worst defect among the three block relations, and which one."""
    n = m.shape[0] // 2
    a, b = m[:n, :n], m[:n, n:]
    c, d = m[n:, :n], m[n:, n:]
    res = {
        "A^T D - C^T B = I": norm_inf(a.T @ d - c.T @ b - np.eye(n)),
        "A^T C symmetric": norm_inf(a.T @ c - c.T @ a),
        "D^T B symmetric": norm_inf(d.T @ b - b.T @ d),
    }
    worst = max(res, key=res.get)
    return res[worst], worst


def make_symplectic(a, b, c, d, tol: Tolerance = DEFAULT_TOL) -> SpMat:
    """Assemble and validate a symplectic matrix from its four blocks."""
    a, b, c, d = map(as_matrix, (a, b, c, d))
    m = np.block([[a, b], [c, d]])
    check_finite(m)
    residual, relation = symplectic_residual(m)
    if residual > rel_bound(tol.eq_tol, m):
        raise NotSymplectic(
            f"relation '{relation}' fails with residual {residual:.3e}")
    return SpMat(m)


def sp_identity(n: int) -> SpMat:
    return SpMat(np.eye(2 * n))


def sp_inverse(g: SpMat) -> SpMat:
    """Inverse from the block formula (D^T, -B^T; -C^T, A^T)."""
    return SpMat(np.block([[g.D.T, -g.B.T], [-g.C.T, g.A.T]]))


def diag_symplectic(m) -> SpMat:
    """diag(M, M^{-T}); stabilizes both 0 and infinity."""
    m = as_matrix(m)
    n = m.shape[0]
    return SpMat(np.block([[m, np.zeros((n, n))],
                           [np.zeros((n, n)), np.linalg.inv(m.T)]]))


def translation_symplectic(b, tol: Tolerance = DEFAULT_TOL) -> SpMat:
    """X -> X + B for symmetric B; stabilizes infinity."""
    b = require_symmetric(b, tol, "translation block")
    n = b.shape[0]
    return SpMat(np.block([[np.eye(n), b], [np.zeros((n, n)), np.eye(n)]]))


def shear_symplectic(w, tol: Tolerance = DEFAULT_TOL) -> SpMat:
    """X -> X (W X + I)^{-1} for symmetric W; stabilizes 0."""
    w = require_symmetric(w, tol, "shear block")
    n = w.shape[0]
    return SpMat(np.block([[np.eye(n), np.zeros((n, n))], [w, np.eye(n)]]))


def swap_symplectic(n: int) -> SpMat:
    """The involution X -> -X^{-1}; swaps 0 and infinity."""
    i, z = np.eye(n), np.zeros((n, n))
    return SpMat(np.block([[z, -i], [i, z]]))


def cycle_symplectic(n: int) -> SpMat:
    """Order-three rotation of the standard triple: (e, inf, 0) -> (0, e, inf)."""
    i, z = np.eye(n), np.zeros((n, n))
    return SpMat(np.block([[i, -i], [i, z]]))


def moebius_act(g: SpMat, p: BoundaryPoint, tol: Tolerance = DEFAULT_TOL) -> BoundaryPoint:
    """Apply the boundary action of g to p.

    Finite p maps to (AX + B)(CX + D)^{-1} when CX + D is safely invertible
    and to infinity when its smallest singular value falls inside the
    infinity band; the gray zone in between raises IllConditioned so the
    caller can refine tolerances instead of trusting a branch choice.
    """
    n = g.n
    if p.is_infinity:
        c = g.C
        smin = np.linalg.svd(c, compute_uv=False)[-1] if n else 0.0
        if smin <= rel_bound(tol.eq_tol, c):
            return INFINITY  # stabilizer branch
        z = g.A @ np.linalg.inv(c)
    else:
        x = p.value
        denom = g.C @ x + g.D
        scale = rel_bound(tol.eq_tol, denom, g.C @ x, g.D)
        smin = np.linalg.svd(denom, compute_uv=False)[-1]
        if smin <= scale:
            return INFINITY
        if smin <= _ILL_BAND_FACTOR * scale:
            raise IllConditioned(
                f"CX + D has sigma_min {smin:.3e} in the ambiguous band")
        z = (g.A @ x + g.B) @ np.linalg.inv(denom)
    defect = norm_inf(z - z.T)
    if defect > rel_bound(tol.eq_tol, z):
        raise IllConditioned(
            f"action result asymmetric beyond tolerance (defect {defect:.3e})")
    return BoundaryPoint(sym_part(z))


def _point_stack(points) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Values (zero at infinity), infinity mask and scales max(1, |X|) of points."""
    at_inf = np.array([p.is_infinity for p in points], dtype=bool)
    n = next((p.value.shape[0] for p in points if not p.is_infinity), 0)
    x = np.array([np.zeros((n, n)) if p.is_infinity else p.value for p in points])
    x = x.reshape(len(points), n, n)
    return x, at_inf, np.maximum(1.0, np.max(np.abs(x), axis=(1, 2), initial=0.0))


def _pair_spectra(stack, i, j, tol: Tolerance) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues of X_j - X_i, zero where a pair meets infinity, and
    transversality of each pair (i[k], j[k]) of a _point_stack.

    A finite pair is transverse when every |eigenvalue| exceeds
    tol.eq_tol * max(1, |X_i|, |X_j|): finite points are exactly symmetric
    (finite_point and every library output make them so), so this is the
    smallest singular value.  Infinity is transverse to finite points only.
    """
    x, at_inf, scale = stack
    eigs = np.linalg.eigvalsh(x[j] - x[i])
    ok = np.min(np.abs(eigs), axis=-1, initial=np.inf) > tol.eq_tol * np.maximum(scale[i], scale[j])
    if at_inf.any():
        meets_inf = at_inf[i] | at_inf[j]
        eigs[meets_inf], ok[meets_inf] = 0.0, (at_inf[i] != at_inf[j])[meets_inf]
    return eigs, ok


def transversality_margin(p: BoundaryPoint, q: BoundaryPoint) -> float:
    """Smallest singular value of X - Y; +inf against infinity, -inf for two infinities."""
    eigs, ok = _pair_spectra(_point_stack((p, q)), [0], [1], DEFAULT_TOL)
    if p.is_infinity or q.is_infinity:
        return np.inf if ok[0] else -np.inf
    return float(np.min(np.abs(eigs)))


def transverse(p: BoundaryPoint, q: BoundaryPoint, tol: Tolerance = DEFAULT_TOL) -> bool:
    """det(X - Y) != 0 in the band sense; ambiguity resolves to False."""
    return bool(_pair_spectra(_point_stack((p, q)), [0], [1], tol)[1][0])


def point_distance(p: BoundaryPoint, q: BoundaryPoint) -> float:
    """Entrywise distance; +inf between a finite point and infinity."""
    if p.is_infinity and q.is_infinity:
        return 0.0
    if p.is_infinity or q.is_infinity:
        return np.inf
    return norm_inf(p.value - q.value)
