"""Representations of the three-holed sphere group <C3, C2, C1 | C3 C2 C1>.

Length parameters are a triple (X1, X2, X3) of invertible matrices whose
product X3 (X2^T)^{-1} X1 is symmetric; positive definiteness of that product
is exactly maximality, and the spectral condition on the individual Xi
(inside the closed unit disc) makes the parameters unique up to simultaneous
orthogonal conjugation.

The forward map sends parameters to three explicit block matrices fixing the
standard points 0, e = identity, infinity; the inverse map recovers
parameters from canonical fixed points.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import IllConditioned, NearSingular, NotMaximal, NotValid, Slices, gate
from .maslov import Triple, _normalize_triple, _triple_indices, indefinite_identity
from .matcore import (
    DEFAULT_TOL,
    Tolerance,
    _singular,
    as_matrix,
    check_finite,
    commutant_search,
)
from .normalform import _canonical_points, _require_fixed
from .symplectic import (
    SpMat,
    _make_symplectics,
    _point_stack,
    moebius_act,
    sp_inverse,
)

__all__ = [
    "ParamClass",
    "PantsParams",
    "GeneralPantsParams",
    "PantsRep",
    "classify_params",
    "build_maximal",
    "build_general",
    "toledo",
    "toledo_signature_shortcut",
    "recover_params",
    "fingerprint",
    "fingerprint_distance",
    "EquivalenceResult",
    "params_equivalent",
]


class ParamClass(enum.Enum):
    NOT_VALID = "not_valid"
    IN_TILDE_R = "in_tilde_r"     # product symmetric positive definite
    IN_R = "in_r"                 # additionally all spectra in the closed unit disc
    IN_R_STAR = "in_r_star"       # all spectra strictly inside


@dataclass(frozen=True, eq=False)
class PantsParams:
    """Length parameters (X1, X2, X3) of a three-holed sphere representation."""

    X1: np.ndarray
    X2: np.ndarray
    X3: np.ndarray

    def __post_init__(self):
        for name in ("X1", "X2", "X3"):
            object.__setattr__(self, name, as_matrix(getattr(self, name)))
        if not (self.X1.shape == self.X2.shape == self.X3.shape):
            raise ValueError("length parameters must share one dimension")

    @classmethod
    def _rows(cls, x1: np.ndarray, x2: np.ndarray, x3: np.ndarray):
        """One parameter set per row of three stacks of shape (k, n, n); the
        stacks are coerced once, not row by row, and each row is a view."""
        xs = [np.asarray(x, dtype=float) for x in (x1, x2, x3)]
        if not (xs[0].ndim == 3 and xs[0].shape[1] == xs[0].shape[2]
                and xs[0].shape == xs[1].shape == xs[2].shape):
            raise ValueError("length stacks must share one shape (k, n, n)")
        for a, b, c in zip(*xs):
            p = object.__new__(cls)
            p.__dict__.update(X1=a, X2=b, X3=c)
            yield p

    @property
    def n(self) -> int:
        return self.X1.shape[0]

    def matrices(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return (self.X1, self.X2, self.X3)


@dataclass(frozen=True, eq=False)
class GeneralPantsParams:
    """Parameters (i, X1, X2, X3) with middle fixed point diag(1_i, -1_{n-i}).

    The product X3 (X2^T)^{-1} X1 must be symmetric but may have any
    signature; these parametrize non-maximal representations as well.
    """

    i: int
    X1: np.ndarray
    X2: np.ndarray
    X3: np.ndarray

    def __post_init__(self):
        for name in ("X1", "X2", "X3"):
            object.__setattr__(self, name, as_matrix(getattr(self, name)))
        if not 0 <= self.i <= self.X1.shape[0]:
            raise ValueError(f"i must lie in [0, {self.X1.shape[0]}]")

    @property
    def n(self) -> int:
        return self.X1.shape[0]


@dataclass(frozen=True, eq=False)
class PantsRep:
    """Images (c1, c2, c3) of the standard generators, with c3 c2 c1 = I."""

    c1: SpMat
    c2: SpMat
    c3: SpMat
    relation_residual: float = field(default=0.0)

    @property
    def n(self) -> int:
        return self.c1.n

    def generators(self) -> tuple[SpMat, SpMat, SpMat]:
        return (self.c1, self.c2, self.c3)


def classify_params(p: PantsParams, tol: Tolerance = DEFAULT_TOL) -> ParamClass:
    """Finest membership class of the parameters.

    NOT_VALID when the product is asymmetric or not positive definite;
    otherwise graded by the spectral radii of the three matrices against the
    unit-circle band.
    """
    return _check_stack(np.array(p.matrices())[None], tol)[0][0]


def _check_stack(xs: np.ndarray, tol: Tolerance) -> tuple[Slices, Slices]:
    """Membership class and product signature of each slice of a stack.

    xs has shape (k, 3, n, n); slice i is the triple (X1, X2, X3) = xs[i].
    The first outcome holds what classify_params gives or raises for each
    slice, the second the signature toledo_signature_shortcut reads off its
    product.  A NaN or Inf in a slice or in its product refuses that slice
    alone, ahead of its other faults.
    """
    eye = np.eye(xs.shape[-1])
    classes = Slices(len(xs))
    xs = classes.screen(xs)
    sv = np.linalg.svd(xs, compute_uv=False)
    singular = sv[..., -1] <= tol.eq_tol * np.maximum(1.0, sv[..., 0])
    # a singular X2 is refused anyway; the identity in its place keeps the
    # stacked inverse from failing on the other slices
    x2ti = np.linalg.inv(np.where(singular[:, 1, None, None], eye, xs[:, 1]).swapaxes(-1, -2))
    prod, xs, sv, singular, x2ti = classes.screen(xs[:, 2] @ x2ti @ xs[:, 0], xs, sv, singular, x2ti)
    prod_t = prod.swapaxes(-1, -2)
    bound = tol.eq_tol * np.maximum(1.0, np.abs(prod).max(axis=(-2, -1)))
    sym = gate("product asymmetry", np.abs(prod - prod_t).max(axis=(-2, -1)), bound, NotValid,
               "product is not symmetric", (xs[:, 2], x2ti, xs[:, 0]))
    asym = np.array([f is not None for f in sym], dtype=bool)
    eigs = np.linalg.eigvalsh((prod + prod_t) / 2.0)
    moduli = np.abs(eigs)
    near = moduli.min(axis=-1) <= tol.eq_tol * moduli.max(axis=-1)
    sigs = Slices(len(classes.refusals))
    sigs.refuse(classes.refusals)
    sigs.finish(sigs.refuse([
        None if not bad else _singular(sv[j, 1], tol, "X2") if singular[j, 1]
        else sym[j] or NearSingular("product eigenvalue inside zero band", "product spectrum",
                                    float(moduli[j].min()), tol.eq_tol * float(moduli[j].max()))
        for j, bad in enumerate((singular[:, 1] | asym | near).tolist())],
        np.sign(eigs).sum(axis=-1).astype(int).tolist()))
    radius = np.abs(np.linalg.eigvals(xs)).max(axis=(-2, -1))
    # an asymmetry at the rounding floor leaves the class undecided
    not_valid, radius = classes.refuse([
        next(_singular(sv[j, i], tol, f"X{i + 1}") for i in range(3) if singular[j, i]) if bad
        else sym[j] if isinstance(sym[j], IllConditioned) else None
        for j, bad in enumerate(singular.any(axis=1).tolist())], asym | (eigs[:, 0] <= bound), radius)
    lo, hi = 1.0 - tol.unit_circle_band, 1.0 + tol.unit_circle_band
    return classes.finish([ParamClass.NOT_VALID if bad
                           else ParamClass.IN_TILDE_R if r > hi
                           else ParamClass.IN_R_STAR if r < lo
                           else ParamClass.IN_R
                           for bad, r in zip(not_valid.tolist(), radius.tolist())]), sigs


def _pants_blocks(x1: np.ndarray, x2: np.ndarray, x3: np.ndarray,
                  ik: np.ndarray) -> tuple[np.ndarray, ...]:
    """The three generator images with middle fixed point ik; the Xi may be
    stacks of matrices.  One stacked call solves each of the six inverses."""
    t, z = (lambda m: m.swapaxes(-1, -2)), np.zeros_like(x1)
    x1ti, x2i, x2ti, x3i, x3ti, x1i = np.linalg.inv(np.stack((t(x1), x2, t(x2), x3, t(x3), x1)))
    t13 = x3i @ t(x1)

    c1 = (x1, z, x2i @ t(x3) + ik @ x1, x1ti)
    c2 = (-ik @ x2ti - ik @ t13 @ ik - x2 @ ik, ik @ t13 + x2,
          -x2ti - t13 @ ik, t13)
    c3 = (x3ti, -x3ti @ ik - x1i @ t(x2), z, x3)
    return c1, c2, c3


def _assemble_reps(blocks, tol: Tolerance, out: Slices) -> Slices:
    """Finish out with the PantsRep of each live slice, from the stacked
    generator blocks of the live slices, or with the refusal of its first
    failing check: c1, c2, c3 symplectic, then the relation."""
    gens = _make_symplectics(*(np.concatenate(parts) for parts in zip(*blocks)), tol)
    c1, c2, c3 = out.refuse(gens.first_of(3), *gens.values.reshape(3, -1, *gens.values.shape[1:]))
    residual = np.abs(c3 @ c2 @ c1 - np.eye(c1.shape[-1])).max(axis=(-2, -1))
    scale = np.maximum(1.0, np.abs(np.stack((c1, c2, c3))).max(axis=(0, -2, -1)))
    c1, c2, c3, residual = out.refuse(gate("group relation residual", residual, tol.eq_tol * scale, NotValid,
                                           "group relation fails with residual {:.3e}", (c3, c2, c1)),
                                      c1, c2, c3, residual)
    return out.finish([PantsRep(SpMat(a), SpMat(b), SpMat(c), relation_residual=float(r))
                       for a, b, c, r in zip(c1, c2, c3, residual)])


def _build_maximal_stack(xs: np.ndarray, tol: Tolerance) -> tuple[Slices, Slices, Slices]:
    """build_maximal on each slice of a (k, 3, n, n) stack of lengths: the classes
    and product signatures of _check_stack, and the PantsReps."""
    classes, sigs = _check_stack(xs, tol)
    reps = Slices(len(xs))
    xs = reps.refuse([f or (NotValid("parameters are not in the positive-definite cone")
                            if c is ParamClass.NOT_VALID else None)
                      for f, c in zip(classes.refusals, classes.values)], xs)
    return classes, sigs, _assemble_reps(_pants_blocks(*xs.swapaxes(0, 1), np.eye(xs.shape[-1])), tol, reps)


def build_maximal(p: PantsParams, tol: Tolerance = DEFAULT_TOL) -> PantsRep:
    """The maximal representation attached to parameters with positive product.

    The images fix 0, e and infinity respectively and satisfy the group
    relation exactly at the formula level.
    """
    return _build_maximal_stack(np.array(p.matrices())[None], tol)[2][0]


def build_general(gp: GeneralPantsParams, tol: Tolerance = DEFAULT_TOL) -> PantsRep:
    """Representation with middle fixed point diag(1_i, -1_{n-i}).

    Requires only what the membership check refuses ahead of the product's
    signature: invertible Xi and a symmetric, invertible product.  The
    characteristic number comes out as i + j - n where 2j - n is that signature.
    """
    classes, sigs = _check_stack(np.array((gp.X1, gp.X2, gp.X3))[None], tol)
    if fault := classes.refusals[0] or sigs.refusals[0]:
        raise fault
    blocks = _pants_blocks(gp.X1[None], gp.X2[None], gp.X3[None], indefinite_identity(gp.n, gp.i))
    return _assemble_reps(blocks, tol, Slices(1))[0]


def toledo(rep: PantsRep, fixed_points: Triple,
           tol: Tolerance = DEFAULT_TOL) -> Fraction:
    """The characteristic number  (beta(y1,y2,y3) + beta(y1, c1.y3, y2)) / 2.

    The yi must be fixed points of the respective generators, and both
    triples pairwise transverse at tol (NotTransverse otherwise).  Values are
    integers or half-integers in [-n, n], returned exactly as fractions.
    """
    y1, y2, y3 = fixed_points.points()
    _require_fixed(np.array([c.m for c in rep.generators()]), (y1, y2, y3), tol, ("c1", "c2", "c3"))
    # (y1, y2, y3) and (y1, c1.y3, y2) from one kernel call
    index, refusals = _triple_indices(_point_stack((y1, y2, y3, moebius_act(rep.c1, y3, tol))),
                                      ((0, 1, 2), (0, 3, 1)), tol)
    if fault := refusals[0] or refusals[1]:
        raise fault
    return Fraction(sum(index), 2)


def toledo_signature_shortcut(p, tol: Tolerance = DEFAULT_TOL) -> Fraction:
    """(n + sign(X3 (X2^T)^{-1} X1)) / 2 for symmetric invertible product."""
    return Fraction(p.n + _check_stack(np.array((p.X1, p.X2, p.X3))[None], tol)[1][0], 2)


def recover_params(rep: PantsRep,
                   tol: Tolerance = DEFAULT_TOL) -> tuple[PantsParams, SpMat]:
    """Invert the forward construction on an arbitrary maximal representation.

    Canonical fixed points of the three generators form a maximal triple
    (normalize_maximal_triple refuses another index with NotMaximal);
    normalizing it to (0, e, inf) puts the generators in the standard block
    shape, from which X1 sits in the upper-left of c1, X3 in the lower-right
    of c3, and X2 = B - D read off c2.  Returns the parameters together with
    the normalizing conjugator h.  Parameters that fail membership raise
    NotMaximal with the stage and values of the gate that failed.
    """
    points, at_inf = _canonical_points(np.array([c.m for c in rep.generators()]), tol)
    ys = np.array([points[i] for i in range(3)])   # a refused generator raises here
    h = _normalize_triple((ys, at_inf, np.maximum(1.0, np.abs(ys).max(axis=(1, 2)))), tol)
    hinv = sp_inverse(h)
    c1, c2, c3 = ((h @ c @ hinv) for c in rep.generators())
    params = PantsParams(c1.A.copy(), c2.B - c2.D, c3.D.copy())
    classes, sigs = _check_stack(np.array(params.matrices())[None], tol)
    if classes[0] is ParamClass.NOT_VALID:
        f = sigs.refusals[0]
        fields = (f.stage, f.measured, f.bound) if f else ("product signature", sigs.values[0], params.n)
        raise NotMaximal(f"recovered parameters fail membership ({fields[0]})", *fields)
    return params, h


def fingerprint(p: PantsParams) -> np.ndarray:
    """Traces of all words of length <= 3 in the Xi and transposes.

    The letters are X1, X2, X3, X1^T, X2^T, X3^T in that order, and the 258
    words run by length and then lexicographically.  Simultaneous orthogonal
    conjugation leaves every entry unchanged, so equal fingerprints are a
    necessary condition for orbit equality.
    """
    return _fingerprints(np.array(p.matrices()))


def _fingerprints(m: np.ndarray) -> np.ndarray:
    """The fingerprint of each triple of a stack of shape (..., 3, n, n)."""
    m = np.concatenate((m, m.swapaxes(-1, -2)), axis=-3)
    # row 6a + b of l2 is the word (a, b), so entry (6a + b, c) below is (a, b, c)
    l2 = (m[..., :, None, :, :] @ m[..., None, :, :, :]).reshape(*m.shape[:-3], 36, *m.shape[-2:])
    return np.concatenate((np.einsum("...kii->...k", m), np.einsum("...kii->...k", l2),
                           np.einsum("...aij,...cji->...ac", l2, m).reshape(*m.shape[:-3], -1)), axis=-1)


def fingerprint_distance(p: PantsParams, q: PantsParams) -> float:
    """Largest fingerprint difference over the largest entry (at least 1);
    infinite for parameters of different sizes.  Both fingerprints come
    from one stacked pass."""
    if p.n != q.n:
        return float("inf")
    fps = _fingerprints(np.array((p.matrices(), q.matrices())))
    return float(np.max(np.abs(fps[0] - fps[1]))) / max(1.0, float(np.max(np.abs(fps))))


@dataclass(frozen=True)
class EquivalenceResult:
    equivalent: bool
    inconclusive: bool
    witness: np.ndarray | None = None


def params_equivalent(p: PantsParams, q: PantsParams,
                      tol: Tolerance = DEFAULT_TOL) -> EquivalenceResult:
    """Decide simultaneous orthogonal conjugacy of two parameter triples.

    Trace fingerprints give a cheap reject; a surviving pair goes through
    commutant_search on the three pairs (Xi, Yi), whose candidates are
    replaced by their orthogonal polar factors.  When fingerprints match but
    no orthogonal witness is found the result is flagged inconclusive rather
    than asserted.  A NaN or Inf entry, or a fingerprint that overflows,
    raises IllConditioned (stage "trace fingerprint" for the overflow).
    """
    if p.n != q.n:
        return EquivalenceResult(False, False)
    xs, ys = check_finite(np.array((p.matrices(), q.matrices())))
    with np.errstate(over="ignore", invalid="ignore"):
        distance = fingerprint_distance(p, q)
    far = max(1e-7, 100 * tol.eq_tol)
    if not np.isfinite(distance):
        raise IllConditioned("trace fingerprint overflows", "trace fingerprint", distance, far)
    if distance > far:
        return EquivalenceResult(False, False)
    bounds = np.sqrt(tol.eq_tol) * np.maximum(1.0, np.abs(ys).max(axis=(1, 2)))

    def accept(k):
        # orthogonal polar factor of a nullspace element
        u, _, vh = np.linalg.svd(k)
        cand = u @ vh
        return cand if (np.abs(cand @ xs @ cand.T - ys).max(axis=(1, 2)) <= bounds).all() else None

    w = commutant_search(list(zip(xs, ys)), max(1e-9, 100 * tol.eq_tol), accept)
    return EquivalenceResult(w is not None, w is None, w)
