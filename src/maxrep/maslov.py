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

from .errors import NearSingular, NotMaximal, NotTransverse
from .matcore import DEFAULT_TOL, Tolerance, sym_part
from .symplectic import (
    BoundaryPoint,
    SpMat,
    _frames,
    _pair_spectra,
    _pairing,
    _point_stack,
    _sp_inv,
    diag_symplectic,
)

__all__ = [
    "Triple",
    "indefinite_identity",
    "normalize_pair",
    "maslov",
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
    """Maslov index of each row (i1, i2, i3) of triples into a _point_stack, and
    its NotTransverse refusal or None, from one _pair_spectra call.  A refusal
    names its first pair that is not transverse; measured is the least
    |eigenvalue| of X_j - X_i (0 at two infinities), bound _pair_spectra's."""
    t = np.asarray(triples, dtype=np.intp).reshape(-1, 3)
    if not len(t):
        return [], []
    i, j = t[:, _PAIRS[:, 0]], t[:, _PAIRS[:, 1]]
    eigs, ok = _pair_spectra(stack, i.ravel(), j.ravel(), tol)
    eigs, ok = eigs.reshape(len(t), 3, -1), ok.reshape(-1, 3)
    refusals = [None] * len(t)
    for r in np.flatnonzero(~ok.all(axis=1)).tolist():
        k, which = next((k, which) for k, which in _REPORTED if not ok[r, k])
        refusals[r] = NotTransverse(f"points {which} are not transverse", "pair transversality",
                                    float(np.abs(eigs[r, k]).min()),
                                    tol.eq_tol * float(max(stack[2][i[r, k]], stack[2][j[r, k]])))
    index = np.sign(eigs).sum(axis=(1, 2)).astype(int)
    return index.tolist(), refusals


@dataclass(frozen=True, eq=False)
class Triple:
    """Three boundary points, not checked when built: maslov, toledo and
    normalize_maximal_triple check them for transversality at their tol."""

    p1: BoundaryPoint
    p2: BoundaryPoint
    p3: BoundaryPoint

    def points(self) -> tuple[BoundaryPoint, BoundaryPoint, BoundaryPoint]:
        return (self.p1, self.p2, self.p3)


def _pair_normalizer(f1: np.ndarray, f3: np.ndarray) -> np.ndarray:
    """The inverse of [F3 w(F3, F1)^{-1} | F1], taking the points of frames F1, F3 to 0, inf."""
    return _sp_inv(np.concatenate((f3 @ np.linalg.inv(_pairing(f3, f1)), f1), axis=-1))


def normalize_pair(p1: BoundaryPoint, p3: BoundaryPoint,
                   tol: Tolerance = DEFAULT_TOL) -> SpMat:
    """A symplectic g with g.p1 = 0 and g.p3 = infinity, read off the graph
    frames of the points; a pair that is not transverse raises NotTransverse
    with the fields of maslov's refusal."""
    stack = _point_stack((p1, p3))
    (eigs,), (ok,) = _pair_spectra(stack, [0], [1], tol)
    if not ok:
        raise NotTransverse("cannot normalize a non-transverse pair", "pair transversality",
                            float(min(np.abs(eigs), default=0.0)), tol.eq_tol * float(stack[2].max()))
    return SpMat(_pair_normalizer(*_frames(*stack[:2])))


def maslov(t: Triple, tol: Tolerance = DEFAULT_TOL) -> int:
    """The Maslov index, an integer in [-n, n] of the same parity as n.

    Every pair is checked at tol, and a pair inside the band raises
    NotTransverse with its stage, measured value and bound.
    """
    (index,), (refusal,) = _triple_indices(_point_stack(t.points()), (0, 1, 2), tol)
    if refusal is not None:
        raise refusal
    return index


def normalize_maximal_triple(t: Triple, tol: Tolerance = DEFAULT_TOL) -> SpMat:
    """An h taking a maximal triple to the standard triple (0, e, inf).

    Another index than n (maslov at tol) raises NotMaximal.  normalize_pair's g
    takes the middle point to Q = -w12 w32^{-1} w31, w_ij the pairing of graph
    frames: (X2 - X1)(X3 - X2)^{-1}(X3 - X1) for finite points.  Q is positive
    definite (NearSingular in the zero band); diag(M^{-1}, M^T), M its Cholesky factor, finishes.
    """
    return _normalize_triple(_point_stack(t.points()), tol)


def _normalize_triple(stack, tol: Tolerance) -> SpMat:
    """normalize_maximal_triple on a _point_stack of three points."""
    (index,), (refusal,) = _triple_indices(stack, (0, 1, 2), tol)
    if refusal is not None:
        raise refusal
    n = stack[0].shape[-1]
    if index != n:
        raise NotMaximal(f"triple has index {index}, expected {n}", "maslov index", index, n)
    f1, f2, f3 = _frames(*stack[:2])
    q = sym_part(-_pairing(f1, f2) @ np.linalg.solve(_pairing(f3, f2), _pairing(f3, f1)))
    eigs = np.linalg.eigvalsh(q)
    bound = tol.eq_tol * float(np.abs(eigs).max())
    if not eigs[0] > bound:
        raise NearSingular("normalized middle point has an eigenvalue in the zero band",
                           "middle point spectrum", float(eigs[0]), bound)
    return diag_symplectic(np.linalg.inv(np.linalg.cholesky(q))) @ SpMat(_pair_normalizer(f1, f3))
