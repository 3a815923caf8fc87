"""Dense real matrix kernels with explicit tolerance bands.

All higher modules funnel their numerics through here: spectral
classification against the unit circle, the discrete Stein equation
A^T P A - P = Q, similarity witnesses, and indefinite square-root factors.

Matrices are plain float64 ``numpy`` arrays.  Comparisons are relative with
floor one: ``|a - b| <= tol * max(1, |a|, |b|)``.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass
from typing import ClassVar

import numpy as np
from scipy.linalg.lapack import dgees, dtrsyl

from .errors import IllConditioned, NearSingular, ResonantSpectrum, Singular

__all__ = [
    "Tolerance",
    "DEFAULT_TOL",
    "CircleClass",
    "as_matrix",
    "norm_inf",
    "rel_bound",
    "check_finite",
    "sym_part",
    "is_symmetric",
    "require_symmetric",
    "require_invertible",
    "spectral_radius",
    "circle_class",
    "stein_solve",
    "commutant_search",
    "similarity_witness",
    "factor_signature",
]


@dataclass(frozen=True)
class Tolerance:
    """Tolerance bands shared across the library.

    eq_tol            relative comparison tolerance, the one setting;
    series_tol        residual gate of the Stein solve, min(1e-12, eq_tol),
                      relative to the scale of a backward-stable residual;
    unit_circle_band  half-width of the band around |lambda| = 1 used when
                      classifying spectra, the constant 1e-8.
    """

    eq_tol: float = 1e-9
    unit_circle_band: ClassVar[float] = 1e-8

    def __post_init__(self):
        if not (np.isfinite(self.eq_tol) and self.eq_tol > 0):
            raise ValueError("eq_tol must be finite and strictly positive")

    @property
    def series_tol(self) -> float:
        return min(1e-12, self.eq_tol)


DEFAULT_TOL = Tolerance()


class CircleClass(enum.Enum):
    CONTRACTING = "contracting"
    HAS_UNIT_MODULUS_EIGENVALUE = "has_unit_modulus_eigenvalue"
    EXPANDING = "expanding"
    MIXED = "mixed"


def as_matrix(x) -> np.ndarray:
    """Coerce scalars / nested lists to a square float64 matrix."""
    m = np.atleast_2d(np.asarray(x, dtype=float))
    if m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    return m


def norm_inf(m) -> float:
    """Largest absolute entry (the norm used in all residual bounds)."""
    m = np.asarray(m)
    return float(np.max(np.abs(m))) if m.size else 0.0


def rel_bound(tol: float, *values) -> float:
    """Return tol * max(1, |values|...) where values may be matrices."""
    scale = 1.0
    for v in values:
        scale = max(scale, norm_inf(v))
    return tol * scale


def check_finite(m: np.ndarray) -> np.ndarray:
    """Return m; a NaN or infinite entry, the trace of an overflow, raises
    IllConditioned."""
    if not np.all(np.isfinite(m)):
        raise IllConditioned("matrix contains NaN or Inf entries")
    return m


def sym_part(m: np.ndarray) -> np.ndarray:
    """Symmetric part of a matrix, or of each matrix in a stack."""
    return (m + np.swapaxes(m, -1, -2)) / 2.0


def is_symmetric(m: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> bool:
    return norm_inf(m - m.T) <= rel_bound(tol.eq_tol, m)


def require_symmetric(m, tol: Tolerance = DEFAULT_TOL, what: str = "matrix") -> np.ndarray:
    """Validate symmetry within tolerance and return the symmetrised copy."""
    m = as_matrix(m)
    check_finite(m)
    if not is_symmetric(m, tol):
        raise ValueError(f"{what} is not symmetric within tolerance "
                         f"(defect {norm_inf(m - m.T):.3e})")
    return sym_part(m)


def require_invertible(m, tol: Tolerance = DEFAULT_TOL, what: str = "matrix") -> np.ndarray:
    m = as_matrix(m)
    check_finite(m)
    s = np.linalg.svd(m, compute_uv=False)
    if s[-1] <= tol.eq_tol * max(1.0, s[0]):
        raise Singular(f"{what} is singular within tolerance "
                       f"(sigma_min = {s[-1]:.3e}, sigma_max = {s[0]:.3e})")
    return m


def spectral_radius(x) -> float:
    x = as_matrix(x)
    check_finite(x)
    return float(np.max(np.abs(np.linalg.eigvals(x)))) if x.size else 0.0


def circle_class(x, tol: Tolerance = DEFAULT_TOL) -> CircleClass:
    """Position of the spectrum relative to the unit circle.

    The band [1-b, 1+b] with b = tol.unit_circle_band decides "on the
    circle"; any eigenvalue inside it dominates the classification.
    """
    x = require_invertible(x, tol, "circle_class input")
    inside, on, outside = _unit_circle_masks(x, tol.unit_circle_band)
    if np.any(on):
        return CircleClass.HAS_UNIT_MODULUS_EIGENVALUE
    if np.all(inside):
        return CircleClass.CONTRACTING
    if np.all(outside):
        return CircleClass.EXPANDING
    return CircleClass.MIXED


def _unit_circle_masks(x: np.ndarray, band: float) -> tuple[np.ndarray, ...]:
    """Masks (inside, on, outside) of the eigenvalues of x against the unit circle.

    An eigenvalue is on the circle when its modulus lies in [1 - band,
    1 + band], inside below that band and outside above it.  The eigenvalues
    are computed once; the caller checks finiteness and invertibility.
    """
    moduli = np.abs(np.linalg.eigvals(x))
    return moduli < 1.0 - band, np.abs(moduli - 1.0) <= band, moduli > 1.0 + band


def _real_schur(x: np.ndarray, select=None, error=np.linalg.LinAlgError):
    """(T, Z, k): real Schur form T = Z^T X Z by LAPACK dgees, the k
    eigenvalues that select(re, im) accepts leading.  LAPACK directly:
    scipy.linalg.schur's workspace query and checks cost several times the
    factorization at small sizes.  A nonzero info raises error."""
    t, k, _, _, z, _, info = (dgees(select, x, sort_t=1) if select
                              else dgees(lambda re, im: None, x))
    if info:
        raise error(f"real Schur factorization failed (LAPACK info {info})")
    return t, z, k


def stein_solve(a, q, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Unique symmetric P with A^T P A - P = Q.

    Solvability requires lambda*mu != 1 for all eigenvalue pairs of A; a
    pair inside the unit_circle_band raises ResonantSpectrum, and so does a
    solution whose residual exceeds series_tol relative to
    max(1, ||Q||, ||A||^2 ||P||), the scale of a backward-stable residual.  One
    algorithm for every n (Barraud 1977; Bartels-Stewart 1972): the Cayley
    map B = I - 2 W with W = (A^T + I)^{-1} turns the equation into
    B P + P B^T = 2 W Q W^T, which one real Schur factorization of B
    reduces to a triangular Sylvester equation; one refinement step reuses
    the same factors.  A NaN or Inf in A, or a solution that overflows,
    raises IllConditioned.
    """
    a = check_finite(as_matrix(a))
    q = require_symmetric(q, tol, "Stein right-hand side")
    if a.shape != q.shape:
        raise ValueError("A and Q must have matching shape")
    eigs = np.linalg.eigvals(a)
    prods = np.abs(np.multiply.outer(eigs, eigs) - 1.0)
    if np.min(prods) <= tol.unit_circle_band:
        raise ResonantSpectrum(
            f"eigenvalue product within {tol.unit_circle_band:.1e} of 1")
    # A^T + I is invertible: an eigenvalue -1 of A is resonant with itself
    n = a.shape[0]
    w = np.linalg.inv(a.T + np.eye(n))
    t, u, _ = _real_schur(np.eye(n) - 2.0 * w, error=IllConditioned)
    wu = w.T @ u

    def solve(r):
        # with B = U T U^T and X = U^T P U: T X + X T^T = 2 U^T W R W^T U
        x, scale, _ = dtrsyl(t, t, 2.0 * (wu.T @ r @ wu), tranb="T")
        return u @ (x / scale) @ u.T

    p = solve(q)
    p = check_finite(sym_part(p - solve(a.T @ p @ a - p - q)))
    residual = norm_inf(a.T @ p @ a - p - q)
    if residual > rel_bound(tol.series_tol, q, norm_inf(a) ** 2 * norm_inf(p)):
        raise ResonantSpectrum(
            f"Stein residual {residual:.3e} exceeds tolerance; "
            "the equation is too close to resonance")
    return p


def _char_poly_matches(x: np.ndarray, y: np.ndarray, tol: Tolerance) -> bool:
    cx, cy = np.poly(x), np.poly(y)
    floor = max(1.0, norm_inf(cx), norm_inf(cy))
    return norm_inf(cx - cy) <= max(1e-8, 100 * tol.eq_tol) * floor


def _realify_eigvecs(w: np.ndarray, v: np.ndarray) -> np.ndarray | None:
    """Real basis from an eigendecomposition of a real matrix.

    Eigenvalues must be simple (up to conjugate pairing); returns None when
    clustering makes the pairing ambiguous.
    """
    order = np.lexsort((w.imag, w.real))
    w, v = w[order], v[:, order]
    cols = []
    i = 0
    n = w.size
    while i < n:
        if abs(w[i].imag) <= 1e-12 * max(1.0, abs(w[i])):
            cols.append(v[:, i].real)
            i += 1
        else:
            # conjugate pair: lexsort puts -im first
            if i + 1 >= n or abs(w[i + 1] - np.conj(w[i])) > 1e-8 * max(1.0, abs(w[i])):
                return None
            cols.append(v[:, i].real)
            cols.append(v[:, i].imag)
            i += 2
    return np.column_stack(cols)


def commutant_search(pairs, cutoff: float, accept):
    """First element K of {K : K X = Y K for every pair (X, Y)} that accept takes.

    The space is the nullspace of the stacked operators
    vec(K X - Y K) = (I (x) X^T - Y (x) I) vec(K): the right singular
    vectors whose singular value is at most cutoff * max(1, sigma_max).
    Each basis element is offered to accept first, then 64 random
    combinations drawn from a generator seeded with 0.  accept maps a
    candidate to a result or None; the first result is returned, None when
    the nullspace is empty or every candidate is refused.
    """
    n = pairs[0][0].shape[0]
    eye = np.eye(n)
    op = np.vstack([np.kron(eye, x.T) - np.kron(y, eye) for x, y in pairs])
    _, svals, vt = np.linalg.svd(op)
    bound = cutoff * max(1.0, svals[0])
    basis = [vt[i].reshape(n, n) for i in range(len(svals)) if svals[i] <= bound]
    if not basis:
        return None
    rng = np.random.default_rng(0)
    combos = (sum(c * b for c, b in zip(rng.normal(size=len(basis)), basis))
              for _ in range(64))
    for k in itertools.chain(basis, combos):
        found = accept(k)
        if found is not None:
            return found
    return None


def similarity_witness(x, y, tol: Tolerance = DEFAULT_TOL) -> np.ndarray | None:
    """Invertible G with G X G^{-1} = Y, or None if X and Y are not similar.

    Strategy: characteristic-polynomial reject, then eigenvector alignment,
    then commutant_search on the pair (X, Y) for an invertible element.
    None encodes non-similarity (or a search that found no invertible
    element); a returned G always satisfies the residual bound eq_tol
    relative to ||Y||.
    """
    x = require_invertible(x, tol, "similarity X")
    y = require_invertible(y, tol, "similarity Y")
    if x.shape != y.shape:
        return None
    n = x.shape[0]
    bound = rel_bound(tol.eq_tol, y)

    def accept(g):
        s = np.linalg.svd(g, compute_uv=False)
        if s[-1] <= 1e-10 * max(1.0, s[0]):
            return None
        if norm_inf(g @ x @ np.linalg.inv(g) - y) <= bound:
            return g
        return None

    if not _char_poly_matches(x, y, tol):
        return None

    wx, vx = np.linalg.eig(x)
    wy, vy = np.linalg.eig(y)
    gaps = np.abs(np.subtract.outer(wx, wx))
    np.fill_diagonal(gaps, np.inf)
    if n == 1 or gaps.min() > 1e-7 * max(1.0, norm_inf(np.abs(wx))):
        # simple spectrum: align realified eigenbases
        rx = _realify_eigvecs(wx, vx)
        ry = _realify_eigvecs(wy, vy)
        if rx is not None and ry is not None:
            g = accept(ry @ np.linalg.inv(rx))
            if g is not None:
                return g

    return commutant_search([(x, y)], max(1e-10, 100 * tol.eq_tol), accept)


def factor_signature(s, tol: Tolerance = DEFAULT_TOL) -> tuple[np.ndarray, int]:
    """Factor an invertible symmetric S as M diag(1_k, -1_{n-k}) M^T.

    Returns (M, k) with M invertible and k the number of positive
    eigenvalues, so S has signature 2k - n.  Positive definite input takes
    the Cholesky route (M lower triangular, k = n).
    """
    s = require_symmetric(s, tol, "factor input")
    n = s.shape[0]
    eigs, vecs = np.linalg.eigh(s)
    scale = float(np.max(np.abs(eigs)))
    if scale == 0.0 or np.any(np.abs(eigs) <= tol.eq_tol * scale):
        raise NearSingular("symmetric factor input has an eigenvalue in the zero band")
    if np.all(eigs > 0):
        return np.linalg.cholesky(s), n
    order = np.argsort(-eigs)  # positives first
    eigs, vecs = eigs[order], vecs[:, order]
    k = int(np.sum(eigs > 0))
    m = vecs @ np.diag(np.sqrt(np.abs(eigs)))
    return m, k
