"""The real symplectic group in 2x2 block form and its boundary action.

Elements are stored as full (2n, 2n) arrays; the four n x n blocks A, B, C, D
satisfy A^T D - C^T B = I, A^T C = C^T A, D^T B = B^T D.  The group acts by
generalized Moebius transformations X -> (AX + B)(CX + D)^{-1} on the model
Sym_n(R) together with one extra point at infinity, whose stabilizer is the
block-lower-triangular subgroup image under X -> A C^{-1}.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .errors import IllConditioned, NotSymplectic, Slices, gate
from .matcore import (
    DEFAULT_TOL,
    Tolerance,
    as_matrix,
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


_RELATIONS = ("A^T D - C^T B = I", "A^T C symmetric", "D^T B symmetric")


def _symplectic_defects(m: np.ndarray) -> np.ndarray:
    """Defects of the three block relations, in _RELATIONS order, along the
    last axis; m may be a stack."""
    n = m.shape[-1] // 2
    t = lambda x: x.swapaxes(-1, -2)
    a, b = m[..., :n, :n], m[..., :n, n:]
    c, d = m[..., n:, :n], m[..., n:, n:]
    defects = (t(a) @ d - t(c) @ b - np.eye(n), t(a) @ c - t(c) @ a, t(d) @ b - t(b) @ d)
    return np.stack([np.abs(x).max(axis=(-2, -1), initial=0.0) for x in defects], axis=-1)


def _block(a, b, c, d) -> np.ndarray:
    """[[a, b], [c, d]] for an n x n array (or a stack of them) a; b, c, d
    may be scalars or broadcast."""
    n = a.shape[-1]
    m = np.empty(a.shape[:-2] + (2 * n, 2 * n), dtype=np.result_type(a, b, c, d))
    m[..., :n, :n], m[..., :n, n:], m[..., n:, :n], m[..., n:, n:] = a, b, c, d
    return m


def make_symplectic(a, b, c, d, tol: Tolerance = DEFAULT_TOL) -> SpMat:
    """Assemble and validate a symplectic matrix from its four blocks."""
    blocks = np.array([as_matrix(x) for x in (a, b, c, d)])   # refuses mixed shapes
    return SpMat(_make_symplectics(*blocks[:, None], tol)[0])


def _make_symplectics(a, b, c, d, tol: Tolerance) -> Slices:
    """make_symplectic on each slice of (k, n, n) block stacks (b, c, d may
    broadcast); the values are the (2n, 2n) matrices."""
    out = Slices(len(a))
    m = out.screen(_block(a, b, c, d))
    with np.errstate(over="ignore", invalid="ignore"):
        res = _symplectic_defects(m)
    bound = tol.eq_tol * np.maximum(1.0, np.abs(m).max(axis=(-2, -1)))
    return out.finish(out.refuse(gate("block-relation defect", res.max(axis=-1), bound, NotSymplectic, [
        f"relation '{_RELATIONS[d.argmax()]}' fails with residual {{:.3e}}" for d in res], (m, m)), m))


def _sp_inv(m: np.ndarray) -> np.ndarray:
    """The block inverse (D^T, -B^T; -C^T, A^T) of a symplectic matrix or stack."""
    n = m.shape[-1] // 2
    t = lambda x: x.swapaxes(-1, -2)
    return _block(t(m[..., n:, n:]), -t(m[..., :n, n:]), -t(m[..., n:, :n]), t(m[..., :n, :n]))


def sp_identity(n: int) -> SpMat:
    return SpMat(np.eye(2 * n))


def sp_inverse(g: SpMat) -> SpMat:
    """Inverse from the block formula (D^T, -B^T; -C^T, A^T)."""
    return SpMat(_sp_inv(g.m))


def diag_symplectic(m) -> SpMat:
    """diag(M, M^{-T}); stabilizes both 0 and infinity."""
    m = as_matrix(m)
    return SpMat(_block(m, 0.0, 0.0, np.linalg.inv(m.T)))


def translation_symplectic(b, tol: Tolerance = DEFAULT_TOL) -> SpMat:
    """X -> X + B for symmetric B; stabilizes infinity."""
    b = require_symmetric(b, tol, "translation block")
    return SpMat(_block(np.eye(len(b)), b, 0.0, np.eye(len(b))))


def shear_symplectic(w, tol: Tolerance = DEFAULT_TOL) -> SpMat:
    """X -> X (W X + I)^{-1} for symmetric W; stabilizes 0."""
    w = require_symmetric(w, tol, "shear block")
    return SpMat(_block(np.eye(len(w)), 0.0, w, np.eye(len(w))))


def swap_symplectic(n: int) -> SpMat:
    """The involution X -> -X^{-1}; swaps 0 and infinity."""
    return SpMat(_block(np.zeros((n, n)), -np.eye(n), np.eye(n), 0.0))


def cycle_symplectic(n: int) -> SpMat:
    """Order-three rotation of the standard triple: (e, inf, 0) -> (0, e, inf)."""
    return SpMat(_block(np.eye(n), -np.eye(n), np.eye(n), 0.0))


@functools.cache
def _rotations(n: int) -> np.ndarray:
    """u_k = I, R^{-1}, R (k = 0, 1, 2) for the triple rotation R = cycle_symplectic(n),
    whose cube is -I, then their inverses: a read-only (6, 2n, 2n) stack built once per n."""
    r = cycle_symplectic(n)
    rots = np.array([np.eye(2 * n), sp_inverse(r).m, r.m])[[0, 1, 2, 0, 2, 1]]
    rots.flags.writeable = False
    return rots


def moebius_act(g: SpMat, p: BoundaryPoint, tol: Tolerance = DEFAULT_TOL) -> BoundaryPoint:
    """Apply the boundary action of g to p: (AX + B)(CX + D)^{-1}, read off g.F for
    the graph frame F = [X; I] of p ([I; 0] at infinity), or infinity when
    sigma_min(CX + D) falls inside the infinity band.  For finite p the gray
    zone above that band raises IllConditioned, stage "action denominator"
    with sigma_min against the zone's upper edge, so the caller can refine
    tolerances instead of trusting a branch choice."""
    n = g.n
    f = _frames(*_point_stack((p,), n)[:2])[0]
    num, denom = (g.m @ f).reshape(2, n, n)
    scale = rel_bound(tol.eq_tol, denom, g.C @ f[:n], g.D @ f[n:])
    smin = np.linalg.svd(denom, compute_uv=False)[-1] if n else 0.0
    if smin <= scale:
        return INFINITY
    if not p.is_infinity and smin <= _ILL_BAND_FACTOR * scale:
        raise IllConditioned(f"CX + D has sigma_min {smin:.3e} in the ambiguous band",
                             "action denominator", float(smin), _ILL_BAND_FACTOR * scale)
    z = num @ np.linalg.inv(denom)
    if fault := gate("action result asymmetry", norm_inf(z - z.T), rel_bound(tol.eq_tol, z), IllConditioned,
                     "action result asymmetric beyond tolerance (defect {:.3e})"):
        raise fault
    return BoundaryPoint(sym_part(z))


def _point_stack(points, n: int = 0) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Values (zero at infinity), infinity mask and scales max(1, |X|) of
    points; n sizes the values when every point is at infinity."""
    at_inf = np.array([p.is_infinity for p in points], dtype=bool)
    n = next((p.value.shape[0] for p in points if not p.is_infinity), n)
    x = np.array([np.zeros((n, n)) if p.is_infinity else p.value for p in points])
    x = x.reshape(len(points), n, n)
    return x, at_inf, np.maximum(1.0, np.max(np.abs(x), axis=(1, 2), initial=0.0))


def _stack_points(x, at_inf) -> list:
    """The BoundaryPoints of a _point_stack's values and infinity mask."""
    return [INFINITY if inf else BoundaryPoint(y) for y, inf in zip(x, at_inf.tolist())]


def _frames(x, at_inf) -> np.ndarray:
    """Graph frames [X; I] of a _point_stack's points, [I; 0] at infinity."""
    eye, inf = np.eye(x.shape[-1]), at_inf[:, None, None]
    return np.concatenate((np.where(inf, eye, x), np.where(inf, 0.0, eye)), axis=-2)


def _pairing(f, g) -> np.ndarray:
    """w(F, G) = F^T J G of graph frames, J = [[0, I], [-I, 0]]: X_F - X_G, or -I or I at infinity."""
    n = f.shape[-1]
    return f[..., :n, :].swapaxes(-1, -2) @ g[..., n:, :] - f[..., n:, :].swapaxes(-1, -2) @ g[..., :n, :]


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


def transverse(p: BoundaryPoint, q: BoundaryPoint, tol: Tolerance = DEFAULT_TOL) -> bool:
    """det(X - Y) != 0 in the band sense; ambiguity resolves to False."""
    return bool(_pair_spectra(_point_stack((p, q)), [0], [1], tol)[1][0])


def point_distance(p: BoundaryPoint, q: BoundaryPoint) -> float:
    """Entrywise distance; +inf between a finite point and infinity."""
    x, at_inf, _ = _point_stack((p, q))
    return np.inf if at_inf[0] != at_inf[1] else norm_inf(x[0] - x[1])
