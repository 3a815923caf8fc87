"""Maslov index of transverse boundary triples.

The index of (X1, X2, X3) is sgn(X2 - X1) + sgn(X3 - X2) + sgn(X1 - X3), a
term that meets infinity dropped (Lion-Vergne; Burger-Iozzi-Wienhard), read
with transversality off the eigenvalues of symplectic._pair_spectra.  The
orientation is pinned by beta(0, I_k, inf) = 2k - n where I_k is the
diagonal matrix with k entries +1 and n - k entries -1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NotMaximal, NotTransverse
from .matcore import DEFAULT_TOL, Tolerance, factor_signature
from .symplectic import (
    BoundaryPoint,
    SpMat,
    _pair_spectra,
    _point_stack,
    diag_symplectic,
    moebius_act,
    shear_symplectic,
    swap_symplectic,
    translation_symplectic,
    transverse,
)

__all__ = [
    "Triple",
    "indefinite_identity",
    "normalize_pair",
    "maslov",
    "is_maximal",
    "normalize_maximal_triple",
]


def indefinite_identity(n: int, k: int) -> np.ndarray:
    """diag(1_k, -1_{n-k})."""
    if not 0 <= k <= n:
        raise ValueError(f"k must lie in [0, {n}], got {k}")
    return np.diag(np.concatenate([np.ones(k), -np.ones(n - k)]))


# slot pairs (i, j) whose differences X_j - X_i make up the index, and the
# order in which a pair that is not transverse is reported
_PAIRS = np.array([(0, 1), (1, 2), (2, 0)])
_REPORTED = ((0, "1 and 2"), (2, "1 and 3"), (1, "2 and 3"))


def _triple_indices(stack, triples, tol: Tolerance) -> tuple[list[int], list[NotTransverse | None]]:
    """Maslov index of each row (i1, i2, i3) of triples into a _point_stack,
    and its NotTransverse refusal or None, from one _pair_spectra call."""
    t = np.asarray(triples, dtype=np.intp).reshape(-1, 3)
    eigs, ok = _pair_spectra(stack, t[:, _PAIRS[:, 0]].ravel(), t[:, _PAIRS[:, 1]].ravel(), tol)
    refusals = []
    for row in ok.reshape(-1, 3):
        failed = [which for k, which in _REPORTED if not row[k]]
        refusals.append(NotTransverse(f"points {failed[0]} are not transverse") if failed else None)
    index = np.sign(eigs).reshape(len(t), -1).sum(axis=1).astype(int)
    return index.tolist(), refusals


@dataclass(frozen=True, eq=False)
class Triple:
    """Three pairwise transverse boundary points."""

    p1: BoundaryPoint
    p2: BoundaryPoint
    p3: BoundaryPoint

    def __post_init__(self):
        maslov(self)   # refuses unless every pair is transverse

    def points(self) -> tuple[BoundaryPoint, BoundaryPoint, BoundaryPoint]:
        return (self.p1, self.p2, self.p3)


def normalize_pair(p1: BoundaryPoint, p3: BoundaryPoint,
                   tol: Tolerance = DEFAULT_TOL) -> SpMat:
    """A symplectic g with g.p1 = 0 and g.p3 = infinity.

    Built from at most three elementary moves: a swap if p1 is infinite, a
    translation taking p1 to 0, and a shear X -> X(WX+I)^{-1} killing the
    image of p3.
    """
    if not transverse(p1, p3, tol):
        raise NotTransverse("cannot normalize a non-transverse pair")
    if p1.is_infinity:
        n = p3.value.shape[0]
        g = swap_symplectic(n)
    else:
        n = p1.value.shape[0]
        g = translation_symplectic(-p1.value, tol)
    q3 = moebius_act(g, p3, tol)
    if not q3.is_infinity:
        # q3 is invertible because it is transverse to 0
        g = shear_symplectic(-np.linalg.inv(q3.value), tol) @ g
    return g


def maslov(t: Triple, tol: Tolerance = DEFAULT_TOL) -> int:
    """The Maslov index, an integer in [-n, n] of the same parity as n.

    Every pair is checked at tol (Triple checks at the default) and a pair
    inside the band raises NotTransverse.
    """
    (index,), (refusal,) = _triple_indices(_point_stack(t.points()), (0, 1, 2), tol)
    if refusal is not None:
        raise refusal
    return index


def is_maximal(t: Triple, tol: Tolerance = DEFAULT_TOL) -> bool:
    n = next(p.value.shape[0] for p in t.points() if not p.is_infinity)
    return maslov(t, tol) == n


def normalize_maximal_triple(t: Triple, tol: Tolerance = DEFAULT_TOL) -> SpMat:
    """An h taking a maximal triple to the standard triple (0, e, inf).

    After normalizing the outer pair, the middle point is positive definite;
    conjugating by diag(M^{-1}, M^T) with its Cholesky factor M finishes.
    """
    g = normalize_pair(t.p1, t.p3, tol)
    q2 = moebius_act(g, t.p2, tol)
    if q2.is_infinity:
        raise NotTransverse("middle point maps to infinity under normalization")
    n = q2.value.shape[0]
    m, k = factor_signature(q2.value, tol)
    if k != n:
        raise NotMaximal(f"triple has index {2 * k - n}, expected {n}")
    return diag_symplectic(np.linalg.inv(m)) @ g
