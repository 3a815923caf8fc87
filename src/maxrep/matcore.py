"""Dense real matrix kernels with explicit tolerance bands.

All higher modules funnel their numerics through here: spectral
classification against the unit circle, the discrete Stein equation
A^T P A - P = Q, similarity witnesses, and indefinite square-root factors.

Matrices are plain float64 ``numpy`` arrays.  Comparisons are relative with
floor one: ``|a - b| <= tol * max(1, |a|, |b|)``.
"""

from __future__ import annotations

import itertools
import os
import sys
from dataclasses import dataclass
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader, FileFinder
from importlib.util import module_from_spec
from typing import ClassVar

import numpy as np
import scipy

from .errors import IllConditioned, MaxRepError, ResonantSpectrum, Singular, Slices, _non_finite, gate

__all__ = [
    "Tolerance",
    "DEFAULT_TOL",
    "as_matrix",
    "norm_inf",
    "rel_bound",
    "check_finite",
    "sym_part",
    "require_symmetric",
    "require_invertible",
    "stein_solve",
    "commutant_search",
    "similarity_witness",
]


def _flapack():
    """scipy's compiled LAPACK wrappers, which scipy.linalg.lapack re-exports, loaded
    without scipy/linalg/__init__.py, whose import takes 0.25 s of CPU and 28 MB."""
    name = "scipy.linalg._flapack"
    if name not in sys.modules:
        where = os.path.join(scipy.__path__[0], "linalg")
        spec = FileFinder(where, (ExtensionFileLoader, EXTENSION_SUFFIXES)).find_spec(name)
        if spec is None:
            raise ImportError(f"no {name} extension in {where}; maxrep needs scipy >= 1.10")
        sys.modules[name] = module_from_spec(spec)
        spec.loader.exec_module(sys.modules[name])
    return sys.modules[name]


_LAPACK = _flapack()
dgees, dtrsyl = _LAPACK.dgees, _LAPACK.dtrsyl


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
_FLOAT64 = np.dtype(np.float64)


def as_matrix(x) -> np.ndarray:
    """Coerce scalars / nested lists to a square float64 matrix; a float64
    matrix is returned as is."""
    m = x if type(x) is np.ndarray and x.dtype is _FLOAT64 and x.ndim == 2 \
        else np.atleast_2d(np.asarray(x, dtype=float))
    if m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    return m


def norm_inf(m) -> float:
    """Largest absolute entry (the norm used in all residual bounds)."""
    m = np.asarray(m)
    return float(np.abs(m).max()) if m.size else 0.0


def rel_bound(tol: float, *values) -> float:
    """Return tol * max(1, |values|...) where values may be matrices."""
    scale = 1.0
    for v in values:
        scale = max(scale, norm_inf(v))
    return tol * scale


def check_finite(m: np.ndarray) -> np.ndarray:
    """Return m; a NaN or infinite entry, the trace of an overflow, raises
    IllConditioned."""
    if not np.isfinite(m).all():
        raise _non_finite()
    return m


def sym_part(m: np.ndarray) -> np.ndarray:
    """Symmetric part of a matrix, or of each matrix in a stack."""
    return (m + m.swapaxes(-1, -2)) / 2.0


def require_symmetric(m, tol: Tolerance = DEFAULT_TOL, what: str = "matrix") -> np.ndarray:
    """Validate symmetry within tolerance and return the symmetrised copy."""
    m = as_matrix(m)
    check_finite(m)
    if norm_inf(m - m.T) > rel_bound(tol.eq_tol, m):
        raise ValueError(f"{what} is not symmetric within tolerance "
                         f"(defect {norm_inf(m - m.T):.3e})")
    return sym_part(m)


def require_invertible(m, tol: Tolerance = DEFAULT_TOL, what: str = "matrix") -> np.ndarray:
    m = as_matrix(m)
    check_finite(m)
    fault = _singular(np.linalg.svd(m, compute_uv=False), tol, what)
    if fault:
        raise fault
    return m


def _singular(s: np.ndarray, tol: Tolerance, what: str) -> Singular | None:
    """What require_invertible raises for singular values s (descending), or None."""
    if s[-1] <= tol.eq_tol * max(1.0, s[0]):
        return Singular(f"{what} is singular within tolerance "
                        f"(sigma_min = {s[-1]:.3e}, sigma_max = {s[0]:.3e})")
    return None


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
    eigenvalues that select(re, im) accepts leading.  scipy's dgees wrapper
    directly: scipy.linalg.schur's import, workspace query and checks cost
    more than the factorization at small sizes.  A nonzero info raises error."""
    t, k, _, _, z, _, info = (dgees(select, x, sort_t=1) if select
                              else dgees(lambda re, im: None, x))
    if info:
        raise error(f"real Schur factorization failed (LAPACK info {info})",
                    *(("real Schur factorization", info, 0) if issubclass(error, MaxRepError) else ()))
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
    the same factors.  A NaN or Inf in A, a solution that overflows, or a
    residual at or below its rounding floor (errors.gate) raises IllConditioned.
    """
    a = check_finite(as_matrix(a))
    q = require_symmetric(q, tol, "Stein right-hand side")
    if a.shape != q.shape:
        raise ValueError("A and Q must have matching shape")
    return _stein_solves(a[None], q[None], tol)[0]


def _stein_solves(a: np.ndarray, q: np.ndarray, tol: Tolerance,
                  eigs: np.ndarray | None = None) -> Slices:
    """stein_solve on each slice of (k, n, n) stacks of finite A and
    symmetric Q, in stein_solve's check order; the values are the solutions.
    eigs, when given, holds the eigenvalues of each A.  Only LAPACK's Schur
    factorization and triangular Sylvester solve run slice by slice.
    """
    n = a.shape[-1]
    eye, t = np.eye(n), lambda m: m.swapaxes(-1, -2)
    out = Slices(len(a))
    q, a, eigs = out.screen(q, a, np.linalg.eigvals(a) if eigs is None else eigs)
    resonant = np.abs(eigs[:, :, None] * eigs[:, None, :] - 1.0).min(axis=(1, 2)) \
        <= tol.unit_circle_band
    a, q = out.refuse([ResonantSpectrum(f"eigenvalue product within {tol.unit_circle_band:.1e} of 1")
                       if bad else None for bad in resonant], a, q)
    # A^T + I is invertible: an eigenvalue -1 of A is resonant with itself
    w = np.linalg.inv(t(a) + eye)
    factors, faults = [], []
    for b in eye - 2.0 * w:
        try:
            factors.append(_real_schur(b, error=IllConditioned)[:2])
            faults.append(None)
        except IllConditioned as exc:
            faults.append(exc)
    a, q, w = out.refuse(faults, a, q, w)
    if not factors:
        return out.finish(a)
    ts, u = (np.array(f) for f in zip(*factors))
    wu = t(w) @ u

    def solve(r):
        # with B = U T U^T and X = U^T P U: T X + X T^T = 2 U^T W R W^T U
        xs = [dtrsyl(ti, ti, ri, tranb="T")[:2] for ti, ri in zip(ts, 2.0 * (t(wu) @ r @ wu))]
        return u @ np.array([x / scale for x, scale in xs]).reshape(u.shape) @ t(u)

    # a solve that overflows is refused before the refinement
    p, a, q, ts, u, wu = out.screen(solve(q), a, q, ts, u, wu)
    p, a, q = out.screen(sym_part(p - solve(t(a) @ p @ a - p - q)), a, q)
    residual = np.abs(t(a) @ p @ a - p - q).max(axis=(1, 2))
    scale = np.maximum(np.maximum(1.0, np.abs(q).max(axis=(1, 2))),
                       np.abs(a).max(axis=(1, 2)) ** 2 * np.abs(p).max(axis=(1, 2)))
    return out.finish(out.refuse(gate(
        "Stein residual", residual, tol.series_tol * scale, ResonantSpectrum,
        "Stein residual {:.3e} exceeds tolerance; the equation is too close to resonance",
        (t(a), p, a)), p))


def _char_poly_matches(x: np.ndarray, y: np.ndarray, tol: Tolerance) -> bool:
    cx, cy = np.poly(x), np.poly(y)
    floor = max(1.0, norm_inf(cx), norm_inf(cy))
    return norm_inf(cx - cy) <= max(1e-8, 100 * tol.eq_tol) * floor


def commutant_search(pairs, cutoff: float, accept):
    """First element K of {K : K X = Y K for every pair (X, Y)} that accept takes.

    The space is the nullspace of the stacked operators
    vec(K X - Y K) = (I (x) X^T - Y (x) I) vec(K): the right singular
    vectors whose singular value is at most cutoff * max(1, sigma_max).
    One broadcast over the pairs forms the entries ((p, i, j), (k, l)) =
    d_ik X_p[l, j] - Y_p[i, k] d_jl as the Kronecker form's products by 0.0
    and 1.0, so they are its entries, signed zeros included.
    Each basis element is offered to accept first, then 64 random
    combinations drawn from a generator seeded with 0.  accept maps a
    candidate to a result or None; the first result is returned, None when
    the nullspace is empty or every candidate is refused.
    """
    xs, ys = (np.array(m) for m in zip(*pairs))
    eye = np.eye(xs.shape[-1])
    op = (eye[:, None, :, None] * xs.swapaxes(1, 2)[:, None, :, None, :]
          - ys[:, :, None, :, None] * eye[None, :, None, :]).reshape(-1, eye.size)
    _, svals, vt = np.linalg.svd(op)
    bound = cutoff * max(1.0, svals[0])
    basis = [vt[i].reshape(eye.shape) for i in range(len(svals)) if svals[i] <= bound]
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

    Strategy: characteristic-polynomial reject, then commutant_search on the
    pair (X, Y) for an invertible element, which covers every spectrum,
    repeated and derogatory ones included.  None encodes non-similarity (or
    a search that found no invertible element); a returned G always
    satisfies the residual bound eq_tol relative to ||Y||.
    """
    x = require_invertible(x, tol, "similarity X")
    y = require_invertible(y, tol, "similarity Y")
    if x.shape != y.shape or not _char_poly_matches(x, y, tol):
        return None
    bound = rel_bound(tol.eq_tol, y)

    def accept(g):
        s = np.linalg.svd(g, compute_uv=False)
        if s[-1] <= 1e-10 * max(1.0, s[0]):
            return None
        if norm_inf(g @ x @ np.linalg.inv(g) - y) <= bound:
            return g
        return None

    return commutant_search([(x, y)], max(1e-10, 100 * tol.eq_tol), accept)
